// Lightweight function/coroutine context builder shared by every
// analyzer. Token-driven recovery of (a) function definitions whose
// declared return type is [sim::]Task and (b) lambda expressions --
// the two shapes coroutine-lifetime rules need to anchor on. It is
// deliberately not a parser: the goal is reliable anchors in this
// codebase's idiom, with conservative bail-outs everywhere else.

#include <string>
#include <vector>

#include "detlint.h"

namespace detlint {
namespace {

using TokenVec = std::vector<Token>;

bool IsPunct(const TokenVec& toks, size_t i, std::string_view text) {
  return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
         toks[i].text == text;
}

bool IsIdent(const TokenVec& toks, size_t i) {
  return i < toks.size() && toks[i].kind == Token::Kind::kIdent;
}

/** Index of the `}` matching the `{` at `open`, or toks.size(). */
size_t MatchBrace(const TokenVec& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

/** Index of the `)` matching the `(` at `open`, or toks.size(). */
size_t MatchParen(const TokenVec& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

/** Index of the `]` matching the `[` at `open`, or toks.size(). */
size_t MatchBracket(const TokenVec& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "[") ++depth;
    if (toks[i].text == "]") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

/**
 * Splits the parameter list in (open, close) at top-level commas and
 * classifies each parameter. Reference detection counts `&` tokens at
 * zero paren/bracket/brace depth and zero template-angle depth, so
 * `std::vector<int>& v` and `int&& x` are references while a function
 * pointer's inner `int&` is not.
 */
std::vector<Param> ParseParams(const TokenVec& toks, size_t open,
                               size_t close) {
  std::vector<Param> params;
  size_t start = open + 1;
  int paren = 0;
  int angle = 0;
  auto flush = [&](size_t end) {
    if (end <= start) return;
    Param p;
    p.line = toks[start].line;
    int inner_paren = 0;
    int inner_angle = 0;
    for (size_t i = start; i < end; ++i) {
      const Token& t = toks[i];
      if (!p.text.empty()) p.text += ' ';
      p.text += t.text.empty() ? "\"\"" : t.text;
      if (t.kind != Token::Kind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++inner_paren;
      if (t.text == ")" || t.text == "]" || t.text == "}") --inner_paren;
      if (inner_paren != 0) continue;
      if (t.text == "<") ++inner_angle;
      if (t.text == ">" && inner_angle > 0) --inner_angle;
      if (t.text == "&" && inner_angle == 0) p.is_reference = true;
    }
    params.push_back(std::move(p));
  };
  for (size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++paren;
    if (t.text == ")" || t.text == "]" || t.text == "}") --paren;
    if (paren != 0) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">" && angle > 0) --angle;
    if (t.text == "," && angle == 0) {
      flush(i);
      start = i + 1;
    }
  }
  flush(close);
  return params;
}

void ScanBody(const TokenVec& toks, FunctionContext* ctx) {
  for (size_t i = ctx->body_begin; i < ctx->body_end; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "co_await" || t == "co_return" || t == "co_yield") {
      ctx->is_coroutine = true;
    }
    if (t == "SelfHandle") ctx->registers_self_handle = true;
  }
}

/**
 * Tries to read a function definition whose return type names Task at
 * token `i` (the `Task` identifier). On success appends a context and
 * returns the index to continue scanning from (just after the body's
 * opening brace, so nested lambdas are still discovered); otherwise
 * returns i.
 */
size_t TryFunction(const TokenVec& toks, size_t i,
                   std::vector<FunctionContext>* out) {
  // Declarator: one or more identifiers joined by `::` (e.g.
  // `ClusterSession :: FanOut`), ending directly before `(`.
  size_t j = i + 1;
  std::string name;
  while (IsIdent(toks, j)) {
    name = toks[j].text;
    if (IsPunct(toks, j + 1, "::")) {
      j += 2;
      continue;
    }
    j += 1;
    break;
  }
  if (name.empty() || !IsPunct(toks, j, "(")) return i;
  const size_t close = MatchParen(toks, j);
  if (close >= toks.size()) return i;
  // After the parameter list: qualifiers until `{` (definition) or
  // `;`/`=` (declaration -- skip) or anything surprising (bail).
  size_t k = close + 1;
  while (k < toks.size()) {
    const Token& t = toks[k];
    if (t.kind == Token::Kind::kIdent &&
        (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
         t.text == "final" || t.text == "mutable")) {
      // noexcept(...) -- skip its operand too.
      if (IsPunct(toks, k + 1, "(")) {
        k = MatchParen(toks, k + 1) + 1;
      } else {
        ++k;
      }
      continue;
    }
    break;
  }
  if (!IsPunct(toks, k, "{")) return i;
  FunctionContext ctx;
  ctx.name = name;
  ctx.line = toks[i].line;
  ctx.returns_task = true;
  ctx.params = ParseParams(toks, j, close);
  ctx.body_begin = k;
  ctx.body_end = MatchBrace(toks, k);
  ScanBody(toks, &ctx);
  out->push_back(std::move(ctx));
  return k;  // descend into the body so nested lambdas are found
}

/**
 * Tries to read a lambda expression at token `i` (the `[`). Appends a
 * context on success and returns the index of the lambda body's `{`
 * (scanning continues inside); otherwise returns i.
 */
size_t TryLambda(const TokenVec& toks, size_t i,
                 std::vector<FunctionContext>* out) {
  // A `[` after an identifier / `)` / `]` is a subscript, not a
  // lambda-introducer -- except after expression-starting keywords
  // (`return [x] { ... }`).
  if (i > 0) {
    const Token& prev = toks[i - 1];
    const bool keyword =
        prev.kind == Token::Kind::kIdent &&
        (prev.text == "return" || prev.text == "co_return" ||
         prev.text == "co_await" || prev.text == "co_yield" ||
         prev.text == "else" || prev.text == "case");
    if ((prev.kind == Token::Kind::kIdent && !keyword) ||
        (prev.kind == Token::Kind::kPunct &&
         (prev.text == ")" || prev.text == "]"))) {
      return i;
    }
  }
  const size_t close_bracket = MatchBracket(toks, i);
  if (close_bracket >= toks.size()) return i;
  FunctionContext ctx;
  ctx.is_lambda = true;
  ctx.line = toks[i].line;
  ctx.has_capture = close_bracket > i + 1;
  size_t k = close_bracket + 1;
  if (IsPunct(toks, k, "(")) {
    const size_t close = MatchParen(toks, k);
    if (close >= toks.size()) return i;
    ctx.params = ParseParams(toks, k, close);
    k = close + 1;
  }
  // Specifiers and an optional trailing return type, up to the body.
  // `-> sim::Task {` / `-> Task {` marks a Task-returning lambda.
  while (k < toks.size() && !IsPunct(toks, k, "{")) {
    if (IsPunct(toks, k, ";") || IsPunct(toks, k, ")") ||
        IsPunct(toks, k, ",") || IsPunct(toks, k, "}")) {
      return i;  // not a lambda after all (e.g. an attribute / array)
    }
    if (toks[k].kind == Token::Kind::kIdent && toks[k].text == "Task") {
      ctx.returns_task = true;
    }
    ++k;
  }
  if (k >= toks.size()) return i;
  ctx.body_begin = k;
  ctx.body_end = MatchBrace(toks, k);
  ScanBody(toks, &ctx);
  out->push_back(std::move(ctx));
  return k;
}

}  // namespace

std::vector<FunctionContext> BuildFunctionContexts(const LexResult& lex) {
  const TokenVec& toks = lex.tokens;
  std::vector<FunctionContext> out;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kIdent && t.text == "Task") {
      // Skip member access (x.Task) and non-sim qualification other
      // than `sim::Task` / `::Task` handled implicitly: the name
      // heuristic only needs the return type position.
      i = TryFunction(toks, i, &out);
      continue;
    }
    if (t.kind == Token::Kind::kPunct && t.text == "[") {
      i = TryLambda(toks, i, &out);
      continue;
    }
  }
  return out;
}

}  // namespace detlint
