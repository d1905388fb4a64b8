#include "query/parser.h"

#include <cctype>
#include <cmath>

#include "common/strings.h"
#include "common/time_utils.h"

namespace datacron {

namespace {

/// Token stream over the query text. Tokens: words, `?var`, `<iri>`,
/// `"literal"^^kind`, and the punctuation { } . * .
class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  /// Next token; empty string at end. Sets `ok=false` on lexing errors.
  std::string Next() {
    SkipSpace();
    if (pos_ >= text_.size()) return "";
    const char c = text_[pos_];
    if (c == '{' || c == '}' || c == '.' || c == '*') {
      ++pos_;
      return std::string(1, c);
    }
    if (c == '<') {
      const std::size_t end = text_.find('>', pos_);
      if (end == std::string::npos) {
        ok_ = false;
        return "";
      }
      std::string tok = text_.substr(pos_, end - pos_ + 1);
      pos_ = end + 1;
      return tok;
    }
    if (c == '"') {
      std::size_t i = pos_ + 1;
      while (i < text_.size() && text_[i] != '"') {
        if (text_[i] == '\\') ++i;
        ++i;
      }
      if (i >= text_.size()) {
        ok_ = false;
        return "";
      }
      // Include the ^^kind suffix if present.
      std::size_t end = i + 1;
      if (end + 1 < text_.size() && text_[end] == '^' &&
          text_[end + 1] == '^') {
        end += 2;
        while (end < text_.size() &&
               !std::isspace(static_cast<unsigned char>(text_[end])) &&
               text_[end] != '.') {
          ++end;
        }
      }
      std::string tok = text_.substr(pos_, end - pos_);
      pos_ = end;
      return tok;
    }
    // Word: ?var, keyword, number, ISO timestamp.
    std::size_t end = pos_;
    while (end < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[end])) &&
           text_[end] != '{' && text_[end] != '}') {
      ++end;
    }
    std::string tok = text_.substr(pos_, end - pos_);
    pos_ = end;
    return tok;
  }

  bool ok() const { return ok_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

bool IsVar(const std::string& tok) {
  return tok.size() > 1 && tok[0] == '?';
}

/// Parses a bound term token (<iri> or "literal"^^kind) into the id
/// `dict` holds for it, or kUnknownTermId when it holds none.
bool ParseBoundTerm(const std::string& tok, const TermDictionary* dict,
                    TermId* out) {
  auto find = [dict, out](std::string_view text, TermKind kind) {
    const TermId id = dict->Find(text, kind);
    *out = id != kInvalidTermId ? id : kUnknownTermId;
    return true;
  };
  if (tok.size() >= 2 && tok.front() == '<' && tok.back() == '>') {
    return find(std::string_view(tok).substr(1, tok.size() - 2),
                TermKind::kIri);
  }
  if (!tok.empty() && tok.front() == '"') {
    const std::size_t close = tok.rfind('"');
    if (close == 0) return false;
    std::string lexical;
    for (std::size_t i = 1; i < close; ++i) {
      if (tok[i] == '\\' && i + 1 < close) ++i;
      lexical += tok[i];
    }
    TermKind kind = TermKind::kLiteralString;
    if (close + 2 < tok.size() && tok[close + 1] == '^' &&
        tok[close + 2] == '^') {
      const std::string suffix = tok.substr(close + 3);
      if (suffix == "string") {
        kind = TermKind::kLiteralString;
      } else if (suffix == "int") {
        kind = TermKind::kLiteralInt;
      } else if (suffix == "double") {
        kind = TermKind::kLiteralDouble;
      } else if (suffix == "dateTime") {
        kind = TermKind::kLiteralDateTime;
      } else {
        return false;
      }
    }
    return find(lexical, kind);
  }
  return false;
}

/// Epoch-ms from either an ISO-8601 instant or a raw integer.
bool ParseInstant(const std::string& tok, TimestampMs* out) {
  if (ParseIso8601(tok, out)) return true;
  return ParseInt64(tok, out);
}

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& text,
                               const TermDictionary* dict) {
  Tokenizer lexer(text);
  ParsedQuery parsed;
  QueryBuilder builder;
  bool select_all = false;
  bool unknown_constant = false;

  auto var_index = [&](const std::string& tok) {
    const int idx = builder.Var(tok.substr(1));
    if (static_cast<std::size_t>(idx) >= parsed.var_names.size()) {
      parsed.var_names.push_back(tok.substr(1));
    }
    return idx;
  };

  // SELECT clause.
  std::string tok = lexer.Next();
  if (Upper(tok) != "SELECT") {
    return Status::ParseError("expected SELECT, got '" + tok + "'");
  }
  std::vector<std::string> select_names;
  while (true) {
    tok = lexer.Next();
    if (tok == "*") {
      select_all = true;
      tok = lexer.Next();
      break;
    }
    if (IsVar(tok)) {
      select_names.push_back(tok.substr(1));
      continue;
    }
    break;
  }
  if (!select_all && select_names.empty()) {
    return Status::ParseError("SELECT needs at least one variable or *");
  }

  // WHERE { pattern . pattern . ... }
  if (Upper(tok) != "WHERE") {
    return Status::ParseError("expected WHERE, got '" + tok + "'");
  }
  if (lexer.Next() != "{") {
    return Status::ParseError("expected '{' after WHERE");
  }
  while (true) {
    std::string first = lexer.Next();
    if (first == "}") break;
    if (first.empty()) {
      return Status::ParseError("unterminated WHERE block");
    }
    std::string second = lexer.Next();
    std::string third = lexer.Next();
    if (second.empty() || third.empty()) {
      return Status::ParseError("incomplete triple pattern");
    }
    auto to_term = [&](const std::string& t, QueryTerm* out) {
      if (IsVar(t)) {
        *out = QueryTerm::Var(var_index(t));
        return true;
      }
      TermId id;
      if (!ParseBoundTerm(t, dict, &id)) return false;
      unknown_constant |= id == kUnknownTermId;
      *out = QueryTerm::Bound(id);
      return true;
    };
    QueryTerm s, p, o;
    if (!to_term(first, &s) || !to_term(second, &p) || !to_term(third, &o)) {
      return Status::ParseError("bad term in pattern: " + first + " " +
                                second + " " + third);
    }
    builder.Pattern(s, p, o);
    const std::string dot = lexer.Next();
    if (dot == "}") break;
    if (dot != ".") {
      return Status::ParseError("expected '.' or '}' after pattern");
    }
  }

  // Optional WITHIN / DURING clauses.
  while (true) {
    tok = lexer.Next();
    if (tok.empty()) break;
    const std::string kw = Upper(tok);
    if (kw == "WITHIN") {
      double vals[4];
      for (double& v : vals) {
        if (!ParseDouble(lexer.Next(), &v)) {
          return Status::ParseError("WITHIN needs 4 numbers");
        }
        if (!std::isfinite(v)) {
          return Status::ParseError("WITHIN numbers must be finite");
        }
      }
      if (vals[0] > vals[2] || vals[1] > vals[3]) {
        return Status::ParseError(
            "WITHIN box needs min_lat <= max_lat and min_lon <= max_lon");
      }
      if (Upper(lexer.Next()) != "ON") {
        return Status::ParseError("WITHIN needs ON ?var");
      }
      const std::string var = lexer.Next();
      if (!IsVar(var)) return Status::ParseError("WITHIN ON needs ?var");
      builder.Within(var.substr(1),
                     BoundingBox::Of(vals[0], vals[1], vals[2], vals[3]));
      var_index(var);
    } else if (kw == "DURING") {
      TimestampMs t0, t1;
      if (!ParseInstant(lexer.Next(), &t0) ||
          !ParseInstant(lexer.Next(), &t1)) {
        return Status::ParseError(
            "DURING needs two instants (ISO-8601 or epoch ms)");
      }
      if (t0 > t1) {
        return Status::ParseError("DURING needs start <= end");
      }
      if (Upper(lexer.Next()) != "ON") {
        return Status::ParseError("DURING needs ON ?var");
      }
      const std::string var = lexer.Next();
      if (!IsVar(var)) return Status::ParseError("DURING ON needs ?var");
      builder.During(var.substr(1), t0, t1);
      var_index(var);
    } else {
      return Status::ParseError("unexpected token '" + tok + "'");
    }
  }
  if (!lexer.ok()) return Status::ParseError("lexing error");

  parsed.query = builder.Build();
  parsed.query.unsatisfiable = unknown_constant;
  // Resolve the projection.
  if (select_all) {
    parsed.select = parsed.var_names;
  } else {
    parsed.select = select_names;
  }
  for (const std::string& name : parsed.select) {
    int found = -1;
    for (std::size_t i = 0; i < parsed.var_names.size(); ++i) {
      if (parsed.var_names[i] == name) found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::ParseError("projected variable ?" + name +
                                " not used in WHERE");
    }
    parsed.select_vars.push_back(found);
  }
  return parsed;
}

}  // namespace datacron
