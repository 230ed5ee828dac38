#include "src/logic/parser.h"

#include <cctype>
#include <optional>
#include <set>

#include "src/common/interner.h"

namespace treewalk {

namespace {

const std::set<std::string>& ReservedWords() {
  static const std::set<std::string>& words = *new std::set<std::string>{
      "E",    "sib",  "desc",   "lab",    "root", "leaf", "first",
      "last", "succ", "exists", "forall", "true", "false", "val", "attr"};
  return words;
}

class FormulaParser {
 public:
  explicit FormulaParser(std::string_view source) : src_(source) {}

  Result<Formula> Parse() {
    TREEWALK_ASSIGN_OR_RETURN(Formula f, ParseIff());
    SkipSpace();
    if (pos_ != src_.size()) {
      return Err("trailing input after formula");
    }
    return f;
  }

 private:
  Result<Formula> ParseIff() {
    TREEWALK_ASSIGN_OR_RETURN(Formula left, ParseImp());
    while (ConsumeOp("<->")) {
      TREEWALK_ASSIGN_OR_RETURN(Formula right, ParseImp());
      left = Formula::Iff(left, right);
    }
    return left;
  }

  Result<Formula> ParseImp() {
    TREEWALK_ASSIGN_OR_RETURN(Formula left, ParseOr());
    if (ConsumeOp("->")) {
      TREEWALK_RETURN_IF_ERROR(EnterNesting());  // right assoc = recursion
      Result<Formula> right = ParseImp();
      --depth_;
      if (!right.ok()) return right.status();
      return Formula::Implies(left, std::move(right).value());
    }
    return left;
  }

  Result<Formula> ParseOr() {
    TREEWALK_ASSIGN_OR_RETURN(Formula left, ParseAnd());
    while (ConsumeOp("|")) {
      TREEWALK_ASSIGN_OR_RETURN(Formula right, ParseAnd());
      left = Formula::Or(left, right);
    }
    return left;
  }

  Result<Formula> ParseAnd() {
    TREEWALK_ASSIGN_OR_RETURN(Formula left, ParseUnary());
    while (ConsumeOp("&")) {
      TREEWALK_ASSIGN_OR_RETURN(Formula right, ParseUnary());
      left = Formula::And(left, right);
    }
    return left;
  }

  Result<Formula> ParseUnary() {
    SkipSpace();
    if (Peek() == '!' && PeekAt(1) != '=') {
      ++pos_;
      TREEWALK_RETURN_IF_ERROR(EnterNesting());
      Result<Formula> f = ParseUnary();
      --depth_;
      if (!f.ok()) return f.status();
      return Formula::Not(std::move(f).value());
    }
    std::size_t mark = pos_;
    std::string word = PeekWord();
    if (word == "exists" || word == "forall") {
      pos_ = mark + word.size();
      SkipSpace();
      std::string var = PeekWord();
      if (var.empty() || ReservedWords().count(var) > 0) {
        return Err("expected variable after quantifier");
      }
      pos_ += var.size();
      TREEWALK_RETURN_IF_ERROR(EnterNesting());
      Result<Formula> body = ParseUnary();
      --depth_;
      if (!body.ok()) return body.status();
      return word == "exists"
                 ? Formula::Exists(var, std::move(body).value())
                 : Formula::Forall(var, std::move(body).value());
    }
    return ParsePrimary();
  }

  Result<Formula> ParsePrimary() {
    SkipSpace();
    if (Peek() == '(') {
      ++pos_;
      TREEWALK_RETURN_IF_ERROR(EnterNesting());
      Result<Formula> inner = ParseIff();
      --depth_;
      if (!inner.ok()) return inner.status();
      Formula f = std::move(inner).value();
      SkipSpace();
      if (Peek() != ')') return Err("expected ')'");
      ++pos_;
      return f;
    }
    std::string word = PeekWord();
    if (word == "true") {
      pos_ += 4;
      return Formula::True();
    }
    if (word == "false") {
      pos_ += 5;
      return Formula::False();
    }
    return ParseAtom();
  }

  Result<Formula> ParseAtom() {
    SkipSpace();
    std::string word = PeekWord();

    // Built-in predicates.
    if (word == "E" || word == "sib" || word == "desc" || word == "succ") {
      pos_ += word.size();
      TREEWALK_ASSIGN_OR_RETURN(auto vars, ParseVarPair());
      if (word == "E") return Formula::Edge(vars.first, vars.second);
      if (word == "sib") return Formula::Sibling(vars.first, vars.second);
      if (word == "desc") return Formula::Descendant(vars.first, vars.second);
      return Formula::Succ(vars.first, vars.second);
    }
    if (word == "root" || word == "leaf" || word == "first" ||
        word == "last") {
      pos_ += word.size();
      TREEWALK_ASSIGN_OR_RETURN(std::string var, ParseParenVar());
      if (word == "root") return Formula::Root(var);
      if (word == "leaf") return Formula::Leaf(var);
      if (word == "first") return Formula::First(var);
      return Formula::Last(var);
    }
    if (word == "lab") {
      pos_ += word.size();
      SkipSpace();
      if (Peek() != '(') return Err("expected '(' after lab");
      ++pos_;
      SkipSpace();
      std::string var = PeekWord();
      if (var.empty()) return Err("expected variable in lab");
      pos_ += var.size();
      SkipSpace();
      if (Peek() != ',') return Err("expected ',' in lab");
      ++pos_;
      SkipSpace();
      std::string label = PeekLabel();
      if (label.empty()) return Err("expected label in lab");
      pos_ += label.size();
      SkipSpace();
      if (Peek() != ')') return Err("expected ')' in lab");
      ++pos_;
      return Formula::Label(var, label);
    }

    // Relation atom: NAME '(' ... ')' where NAME is not reserved and the
    // next non-space char is '(' AND the atom is not followed by '=' --
    // disambiguated by the grammar: terms never start with NAME '('
    // except val/attr, which are reserved.
    if (!word.empty() && ReservedWords().count(word) == 0) {
      std::size_t after = pos_ + word.size();
      std::size_t probe = after;
      while (probe < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[probe]))) {
        ++probe;
      }
      if (probe < src_.size() && src_[probe] == '(') {
        pos_ = probe + 1;
        std::vector<Term> args;
        SkipSpace();
        if (Peek() == ')') {
          ++pos_;
          return Formula::Relation(word, std::move(args));
        }
        while (true) {
          TREEWALK_ASSIGN_OR_RETURN(Term t, ParseTermExpr());
          args.push_back(std::move(t));
          SkipSpace();
          if (Peek() == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        if (Peek() != ')') return Err("expected ')' in relation atom");
        ++pos_;
        return Formula::Relation(word, std::move(args));
      }
    }

    // Equality / inequality.
    TREEWALK_ASSIGN_OR_RETURN(Term left, ParseTermExpr());
    SkipSpace();
    bool negate = false;
    if (Peek() == '!' && PeekAt(1) == '=') {
      negate = true;
      pos_ += 2;
    } else if (Peek() == '=') {
      ++pos_;
    } else {
      return Err("expected '=' or '!=' after term");
    }
    TREEWALK_ASSIGN_OR_RETURN(Term right, ParseTermExpr());
    Formula eq = Formula::Eq(std::move(left), std::move(right));
    return negate ? Formula::Not(eq) : eq;
  }

  Result<Term> ParseTermExpr() {
    SkipSpace();
    char c = Peek();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
      if (pos_ == start + (c == '-' ? 1u : 0u)) return Err("expected number");
      const std::optional<DataValue> value =
          ValueInterner::ParseInteger(src_.substr(start, pos_ - start));
      if (!value.has_value()) {
        return InvalidArgument("integer constant out of range at offset " +
                               std::to_string(start));
      }
      return Term::Int(*value);
    }
    if (c == '"') {
      ++pos_;
      std::string text;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
        text.push_back(src_[pos_++]);
      }
      if (pos_ >= src_.size()) return Err("unclosed string");
      ++pos_;
      return Term::Str(std::move(text));
    }
    std::string word = PeekWord();
    if (word.empty()) return Err("expected term");
    if (word == "val") {
      pos_ += word.size();
      SkipSpace();
      if (Peek() != '(') return Err("expected '(' after val");
      ++pos_;
      SkipSpace();
      std::string attr = PeekWord();
      if (attr.empty()) return Err("expected attribute in val");
      pos_ += attr.size();
      SkipSpace();
      if (Peek() != ',') return Err("expected ',' in val");
      ++pos_;
      SkipSpace();
      std::string var = PeekWord();
      if (var.empty()) return Err("expected variable in val");
      pos_ += var.size();
      SkipSpace();
      if (Peek() != ')') return Err("expected ')' in val");
      ++pos_;
      return Term::AttrOf(attr, var);
    }
    if (word == "attr") {
      pos_ += word.size();
      SkipSpace();
      if (Peek() != '(') return Err("expected '(' after attr");
      ++pos_;
      SkipSpace();
      std::string attr = PeekWord();
      if (attr.empty()) return Err("expected attribute in attr");
      pos_ += attr.size();
      SkipSpace();
      if (Peek() != ')') return Err("expected ')' in attr");
      ++pos_;
      return Term::CurrentAttr(attr);
    }
    if (ReservedWords().count(word) > 0) {
      return Err("reserved word '" + word + "' used as a term");
    }
    pos_ += word.size();
    return Term::Var(std::move(word));
  }

  Result<std::pair<std::string, std::string>> ParseVarPair() {
    SkipSpace();
    if (Peek() != '(') return Err("expected '('");
    ++pos_;
    SkipSpace();
    std::string x = PeekWord();
    if (x.empty()) return Err("expected variable");
    pos_ += x.size();
    SkipSpace();
    if (Peek() != ',') return Err("expected ','");
    ++pos_;
    SkipSpace();
    std::string y = PeekWord();
    if (y.empty()) return Err("expected variable");
    pos_ += y.size();
    SkipSpace();
    if (Peek() != ')') return Err("expected ')'");
    ++pos_;
    return std::make_pair(x, y);
  }

  Result<std::string> ParseParenVar() {
    SkipSpace();
    if (Peek() != '(') return Err("expected '('");
    ++pos_;
    SkipSpace();
    std::string x = PeekWord();
    if (x.empty()) return Err("expected variable");
    pos_ += x.size();
    SkipSpace();
    if (Peek() != ')') return Err("expected ')'");
    ++pos_;
    return x;
  }

  /// Like PeekWord() but also accepts the '#'-prefixed delimiter labels
  /// (#top, #open, #close, #leaf) as label names in lab(., .).
  std::string PeekLabel() {
    SkipSpace();
    std::size_t i = pos_;
    if (i >= src_.size()) return "";
    char c = src_[i];
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_' &&
        c != '#') {
      return "";
    }
    while (i < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i])) ||
            src_[i] == '_' || src_[i] == '#' || src_[i] == '-')) {
      ++i;
    }
    return std::string(src_.substr(pos_, i - pos_));
  }

  /// Returns the identifier starting at the current position (after
  /// whitespace) without consuming it.
  std::string PeekWord() {
    SkipSpace();
    std::size_t i = pos_;
    if (i >= src_.size()) return "";
    char c = src_[i];
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') return "";
    while (i < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i])) ||
            src_[i] == '_' || src_[i] == '\'')) {
      ++i;
    }
    return std::string(src_.substr(pos_, i - pos_));
  }

  bool ConsumeOp(std::string_view op) {
    SkipSpace();
    if (src_.substr(pos_, op.size()) == op) {
      // Don't let '->' consume the tail of '<->'.
      pos_ += op.size();
      return true;
    }
    return false;
  }

  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  char PeekAt(std::size_t offset) const {
    return pos_ + offset < src_.size() ? src_[pos_ + offset] : '\0';
  }
  void SkipSpace() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }
  Status Err(std::string message) const {
    return InvalidArgument(message + " at offset " + std::to_string(pos_));
  }

  /// Guards every recursive production (parens, prefix operators, the
  /// right-associative '->'): adversarially deep input is rejected as
  /// kInvalidArgument instead of overflowing the parser's stack.  The
  /// caller decrements depth_ after its recursive call returns.
  Status EnterNesting() {
    if (depth_ >= kMaxFormulaNestingDepth) {
      return Err("formula nesting exceeds depth limit " +
                 std::to_string(kMaxFormulaNestingDepth));
    }
    ++depth_;
    return Status::Ok();
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Formula> ParseFormula(std::string_view source) {
  return FormulaParser(source).Parse();
}

}  // namespace treewalk
