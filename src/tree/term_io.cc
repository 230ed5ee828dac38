#include "src/tree/term_io.h"

#include <cctype>
#include <optional>
#include <utility>
#include <vector>

namespace treewalk {

namespace {

/// Hand-rolled recursive-descent parser over the term grammar.  It
/// writes the tree in one pre-order pass through PreorderTreeWriter:
/// labels, attribute names and string values are interned in the order
/// TreeBuilder would intern them (first use in document order), so the
/// result equals the TreeBuilder construction node for node and has the
/// same TreeContentHash.
class TermParser {
 public:
  explicit TermParser(std::string_view source) : src_(source) {}

  Result<Tree> Parse() {
    SkipSpace();
    TREEWALK_RETURN_IF_ERROR(ParseNode(kNoNode, /*depth=*/0));
    SkipSpace();
    if (pos_ != src_.size()) {
      return InvalidArgument(Where("trailing input after tree term"));
    }
    // Attributes are total (Definition 2.1): a node that never set one
    // holds 0.
    for (std::size_t a = 0; a < columns_.size(); ++a) {
      columns_[a].resize(nodes_, 0);
      writer_.AddAttribute(attr_names_.NameOf(static_cast<AttrId>(a)),
                           std::move(columns_[a]));
    }
    return std::move(writer_).Finish();
  }

 private:
  Status ParseNode(NodeId parent, int depth) {
    if (depth > kMaxTermNestingDepth) {
      // Reject instead of overflowing the recursive-descent stack.
      return InvalidArgument(
          Where("term nesting exceeds depth limit " +
                std::to_string(kMaxTermNestingDepth)));
    }
    TREEWALK_ASSIGN_OR_RETURN(std::string_view label, ParseIdent("label"));
    const NodeId u = writer_.Open(writer_.InternLabel(label), parent);
    ++nodes_;
    SkipSpace();
    if (Peek() == '[') {
      TREEWALK_RETURN_IF_ERROR(ParseAttrs(u));
      SkipSpace();
    }
    if (Peek() == '(') {
      ++pos_;
      while (true) {
        SkipSpace();
        TREEWALK_RETURN_IF_ERROR(ParseNode(u, depth + 1));
        SkipSpace();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      if (Peek() != ')') return InvalidArgument(Where("expected ')'"));
      ++pos_;
    }
    writer_.Close(u);
    return Status::Ok();
  }

  Status ParseAttrs(NodeId u) {
    ++pos_;  // consume '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      TREEWALK_ASSIGN_OR_RETURN(std::string_view name, ParseIdent("attribute"));
      SkipSpace();
      if (Peek() != '=') return InvalidArgument(Where("expected '='"));
      ++pos_;
      SkipSpace();
      if (Peek() == '"') {
        TREEWALK_ASSIGN_OR_RETURN(std::string text, ParseString());
        SetAttr(u, name, writer_.InternValue(text));
      } else {
        TREEWALK_ASSIGN_OR_RETURN(DataValue value, ParseInt());
        SetAttr(u, name, value);
      }
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (Peek() != ']') return InvalidArgument(Where("expected ']'"));
    ++pos_;
    return Status::Ok();
  }

  /// A later value for the same name on one node overwrites the earlier.
  void SetAttr(NodeId u, std::string_view name, DataValue value) {
    const auto a = static_cast<std::size_t>(attr_names_.Intern(name));
    if (a == columns_.size()) columns_.emplace_back();
    std::vector<DataValue>& column = columns_[a];
    if (column.size() <= static_cast<std::size_t>(u)) {
      column.resize(static_cast<std::size_t>(u) + 1, 0);
    }
    column[static_cast<std::size_t>(u)] = value;
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '#';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '#' || c == '-';
  }

  Result<std::string_view> ParseIdent(const char* what) {
    if (pos_ >= src_.size() || !IsIdentStart(src_[pos_])) {
      return InvalidArgument(Where(std::string("expected ") + what));
    }
    std::size_t start = pos_;
    while (pos_ < src_.size() && IsIdentChar(src_[pos_])) ++pos_;
    return src_.substr(start, pos_ - start);
  }

  Result<std::string> ParseString() {
    ++pos_;  // consume opening quote
    std::string out;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      out.push_back(src_[pos_++]);
    }
    if (pos_ >= src_.size()) return InvalidArgument(Where("unclosed string"));
    ++pos_;  // closing quote
    return out;
  }

  Result<DataValue> ParseInt() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && src_[start] == '-')) {
      return InvalidArgument(Where("expected integer or string value"));
    }
    const std::optional<DataValue> value =
        ValueInterner::ParseInteger(src_.substr(start, pos_ - start));
    if (!value.has_value()) {
      return InvalidArgument("integer value out of range at offset " +
                             std::to_string(start));
    }
    return *value;
  }

  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }
  std::string Where(std::string message) const {
    return message + " at offset " + std::to_string(pos_);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  PreorderTreeWriter writer_;
  std::size_t nodes_ = 0;
  Interner attr_names_;                        // first-use order
  std::vector<std::vector<DataValue>> columns_;  // [attr][node], grown lazily
};

void PrintNode(const Tree& tree, NodeId u, bool skip_zero_attrs,
               std::string& out) {
  out += tree.LabelName(tree.label(u));
  std::string attrs;
  for (AttrId a = 0; a < static_cast<AttrId>(tree.num_attributes()); ++a) {
    DataValue v = tree.attr(a, u);
    if (skip_zero_attrs && v == 0) continue;
    if (!attrs.empty()) attrs += ", ";
    attrs += tree.attributes().NameOf(a);
    attrs += '=';
    if (ValueInterner::IsString(v) || v == kBottom) {
      attrs += '"';
      attrs += tree.values().Render(v);
      attrs += '"';
    } else {
      attrs += std::to_string(v);
    }
  }
  if (!attrs.empty()) {
    out += '[';
    out += attrs;
    out += ']';
  }
  if (!tree.IsLeaf(u)) {
    out += '(';
    for (NodeId c = tree.FirstChild(u); c != kNoNode; c = tree.NextSibling(c)) {
      if (c != tree.FirstChild(u)) out += ", ";
      PrintNode(tree, c, skip_zero_attrs, out);
    }
    out += ')';
  }
}

}  // namespace

Result<Tree> ParseTerm(std::string_view source) {
  return TermParser(source).Parse();
}

std::string PrintTerm(const Tree& tree, bool skip_zero_attrs) {
  if (tree.empty()) return "";
  std::string out;
  PrintNode(tree, tree.root(), skip_zero_attrs, out);
  return out;
}

Tree StringTree(const std::vector<DataValue>& values, std::string_view label,
                std::string_view attr) {
  TreeBuilder builder;
  TreeBuilder::Ref node = builder.AddRoot(label);
  builder.SetAttr(node, attr, values.empty() ? 0 : values.front());
  for (std::size_t i = 1; i < values.size(); ++i) {
    node = builder.AddChild(node, label);
    builder.SetAttr(node, attr, values[i]);
  }
  return builder.Build();
}

std::vector<DataValue> StringValues(const Tree& tree, std::string_view attr) {
  std::vector<DataValue> out;
  AttrId a = tree.FindAttribute(attr);
  if (a == kNoAttr || tree.empty()) return out;
  for (NodeId u = tree.root(); u != kNoNode; u = tree.FirstChild(u)) {
    out.push_back(tree.attr(a, u));
  }
  return out;
}

}  // namespace treewalk
