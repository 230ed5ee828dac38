#include <cctype>
#include <optional>

#include "src/common/interner.h"
#include "src/xpath/xpath.h"

namespace treewalk {

namespace {

class XPathParser {
 public:
  explicit XPathParser(std::string_view source) : src_(source) {}

  Result<XPath> Parse() {
    TREEWALK_ASSIGN_OR_RETURN(XPath xpath, ParseUnion());
    SkipSpace();
    if (pos_ != src_.size()) return Err("trailing input");
    return xpath;
  }

 private:
  Result<XPath> ParseUnion() {
    XPath xpath;
    while (true) {
      TREEWALK_ASSIGN_OR_RETURN(XPathPath path, ParsePath());
      xpath.paths.push_back(std::move(path));
      SkipSpace();
      if (Peek() == '|') {
        ++pos_;
        continue;
      }
      break;
    }
    return xpath;
  }

  Result<XPathPath> ParsePath() {
    XPathPath path;
    SkipSpace();
    XPathStep::Axis next_axis = XPathStep::Axis::kChild;
    if (Peek() == '/') {
      path.absolute = true;
      ++pos_;
      if (Peek() == '/') {
        next_axis = XPathStep::Axis::kDescendant;
        ++pos_;
      }
    }
    while (true) {
      TREEWALK_ASSIGN_OR_RETURN(XPathStep step, ParseStep());
      step.axis = next_axis;
      path.steps.push_back(std::move(step));
      SkipSpace();
      if (Peek() != '/') break;
      ++pos_;
      if (Peek() == '/') {
        next_axis = XPathStep::Axis::kDescendant;
        ++pos_;
      } else {
        next_axis = XPathStep::Axis::kChild;
      }
    }
    return path;
  }

  Result<XPathStep> ParseStep() {
    SkipSpace();
    XPathStep step;
    if (Peek() == '*') {
      ++pos_;
      step.label.clear();
    } else {
      TREEWALK_ASSIGN_OR_RETURN(step.label, ParseName("element test"));
    }
    while (true) {
      SkipSpace();
      if (Peek() != '[') break;
      ++pos_;
      TREEWALK_ASSIGN_OR_RETURN(XPathPredicate pred, ParsePredicate());
      step.predicates.push_back(std::move(pred));
      SkipSpace();
      if (Peek() != ']') return Err("expected ']'");
      ++pos_;
    }
    return step;
  }

  Result<XPathPredicate> ParsePredicate() {
    SkipSpace();
    XPathPredicate pred;
    if (Peek() == '@') {
      ++pos_;
      TREEWALK_ASSIGN_OR_RETURN(pred.attr, ParseName("attribute"));
      SkipSpace();
      if (Peek() != '=') return Err("expected '=' in attribute predicate");
      ++pos_;
      SkipSpace();
      if (Peek() == '@') {
        ++pos_;
        pred.kind = XPathPredicate::Kind::kAttrEqAttr;
        TREEWALK_ASSIGN_OR_RETURN(pred.other_attr, ParseName("attribute"));
        return pred;
      }
      pred.kind = XPathPredicate::Kind::kAttrEqConst;
      char c = Peek();
      if (c == '"' || c == '\'') {
        ++pos_;
        std::string text;
        while (pos_ < src_.size() && src_[pos_] != c) {
          text.push_back(src_[pos_++]);
        }
        if (pos_ >= src_.size()) return Err("unclosed string literal");
        ++pos_;
        pred.literal = Term::Str(std::move(text));
        return pred;
      }
      std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start || (c == '-' && pos_ == start + 1)) {
        return Err("expected literal after '='");
      }
      const std::optional<DataValue> value =
          ValueInterner::ParseInteger(src_.substr(start, pos_ - start));
      if (!value.has_value()) {
        return InvalidArgument("integer literal out of range at offset " +
                               std::to_string(start));
      }
      pred.literal = Term::Int(*value);
      return pred;
    }
    pred.kind = XPathPredicate::Kind::kPath;
    TREEWALK_ASSIGN_OR_RETURN(XPath nested, ParseUnion());
    pred.path = std::make_shared<const XPath>(std::move(nested));
    return pred;
  }

  Result<std::string> ParseName(const char* what) {
    SkipSpace();
    std::size_t start = pos_;
    auto is_start = [](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto is_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '-' || c == '.';
    };
    if (pos_ >= src_.size() || !is_start(src_[pos_])) {
      return Err(std::string("expected ") + what);
    }
    while (pos_ < src_.size() && is_char(src_[pos_])) ++pos_;
    return std::string(src_.substr(start, pos_ - start));
  }

  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }
  Status Err(std::string message) const {
    return InvalidArgument(message + " at offset " + std::to_string(pos_));
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

void PathToString(const XPathPath& path, std::string& out);

void PredicateToString(const XPathPredicate& pred, std::string& out) {
  out += '[';
  switch (pred.kind) {
    case XPathPredicate::Kind::kPath:
      out += XPathToString(*pred.path);
      break;
    case XPathPredicate::Kind::kAttrEqAttr:
      out += '@';
      out += pred.attr;
      out += " = @";
      out += pred.other_attr;
      break;
    case XPathPredicate::Kind::kAttrEqConst:
      out += '@';
      out += pred.attr;
      out += " = ";
      if (pred.literal.kind == Term::Kind::kStrConst) {
        out += '"';
        out += pred.literal.text;
        out += '"';
      } else {
        out += std::to_string(pred.literal.value);
      }
      break;
  }
  out += ']';
}

void PathToString(const XPathPath& path, std::string& out) {
  for (std::size_t i = 0; i < path.steps.size(); ++i) {
    const XPathStep& step = path.steps[i];
    bool descendant = step.axis == XPathStep::Axis::kDescendant;
    if (i == 0) {
      if (path.absolute) out += descendant ? "//" : "/";
    } else {
      out += descendant ? "//" : "/";
    }
    out += step.label.empty() ? "*" : step.label;
    for (const XPathPredicate& pred : step.predicates) {
      PredicateToString(pred, out);
    }
  }
}

}  // namespace

Result<XPath> ParseXPath(std::string_view source) {
  return XPathParser(source).Parse();
}

std::string XPathToString(const XPath& xpath) {
  std::string out;
  for (std::size_t i = 0; i < xpath.paths.size(); ++i) {
    if (i > 0) out += " | ";
    PathToString(xpath.paths[i], out);
  }
  return out;
}

}  // namespace treewalk
