#include "src/tree/xml_io.h"

#include <cctype>
#include <optional>
#include <vector>

namespace treewalk {

namespace {

class XmlParser {
 public:
  explicit XmlParser(std::string_view source) : src_(source) {}

  Result<Tree> Parse() {
    SkipMisc();
    if (Peek() != '<') return Error("expected root element");
    TREEWALK_RETURN_IF_ERROR(ParseElement(-1, /*depth=*/0));
    SkipMisc();
    if (pos_ != src_.size()) return Error("trailing content after root");
    return builder_.Build();
  }

 private:
  Status ParseElement(TreeBuilder::Ref parent, int depth) {
    if (depth > kMaxXmlNestingDepth) {
      // Reject instead of overflowing the recursive-descent stack.
      return Error("element nesting exceeds depth limit " +
                   std::to_string(kMaxXmlNestingDepth));
    }
    ++pos_;  // consume '<'
    TREEWALK_ASSIGN_OR_RETURN(std::string name, ParseName());
    TreeBuilder::Ref ref =
        parent < 0 ? builder_.AddRoot(name) : builder_.AddChild(parent, name);
    while (true) {
      SkipSpace();
      char c = Peek();
      if (c == '/') {
        ++pos_;
        if (Peek() != '>') return Error("expected '>' after '/'");
        ++pos_;
        return Status::Ok();
      }
      if (c == '>') {
        ++pos_;
        break;
      }
      TREEWALK_RETURN_IF_ERROR(ParseAttribute(ref));
    }
    // Children until matching close tag.
    while (true) {
      SkipMisc();
      if (pos_ >= src_.size()) return Error("unexpected end of input");
      if (Peek() != '<') return Error("text content is not supported");
      if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        pos_ += 2;
        TREEWALK_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != name) {
          return Error("mismatched close tag </" + close + "> for <" + name +
                       ">");
        }
        SkipSpace();
        if (Peek() != '>') return Error("expected '>' in close tag");
        ++pos_;
        return Status::Ok();
      }
      TREEWALK_RETURN_IF_ERROR(ParseElement(ref, depth + 1));
    }
  }

  Status ParseAttribute(TreeBuilder::Ref ref) {
    TREEWALK_ASSIGN_OR_RETURN(std::string name, ParseName());
    SkipSpace();
    if (Peek() != '=') return Error("expected '=' in attribute");
    ++pos_;
    SkipSpace();
    char quote = Peek();
    if (quote != '"' && quote != '\'') return Error("expected quoted value");
    ++pos_;
    std::string value;
    while (pos_ < src_.size() && src_[pos_] != quote) {
      if (src_[pos_] == '&') {
        TREEWALK_ASSIGN_OR_RETURN(char decoded, ParseEntity());
        value.push_back(decoded);
      } else {
        value.push_back(src_[pos_++]);
      }
    }
    if (pos_ >= src_.size()) return Error("unclosed attribute value");
    ++pos_;  // closing quote

    // A numeral outside the integer range would alias an interned
    // string or kBottom, so it stays a string, like any other text.
    if (const std::optional<DataValue> numeric =
            ValueInterner::ParseInteger(value)) {
      builder_.SetAttr(ref, name, *numeric);
    } else {
      builder_.SetAttrString(ref, name, value);
    }
    return Status::Ok();
  }

  Result<char> ParseEntity() {
    static constexpr struct {
      std::string_view name;
      char value;
    } kEntities[] = {{"&lt;", '<'},
                     {"&gt;", '>'},
                     {"&amp;", '&'},
                     {"&quot;", '"'},
                     {"&apos;", '\''}};
    for (const auto& entity : kEntities) {
      if (src_.substr(pos_, entity.name.size()) == entity.name) {
        pos_ += entity.name.size();
        return entity.value;
      }
    }
    return Error("unknown entity");
  }

  Result<std::string> ParseName() {
    auto is_start = [](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto is_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '-' || c == '.' || c == ':';
    };
    if (pos_ >= src_.size() || !is_start(src_[pos_])) {
      return Error("expected name");
    }
    std::size_t start = pos_;
    while (pos_ < src_.size() && is_char(src_[pos_])) ++pos_;
    return std::string(src_.substr(start, pos_ - start));
  }

  /// Skips whitespace, comments, and processing instructions.
  void SkipMisc() {
    while (true) {
      SkipSpace();
      if (src_.substr(pos_, 4) == "<!--") {
        std::size_t end = src_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? src_.size() : end + 3;
        continue;
      }
      if (src_.substr(pos_, 2) == "<?") {
        std::size_t end = src_.find("?>", pos_ + 2);
        pos_ = end == std::string_view::npos ? src_.size() : end + 2;
        continue;
      }
      break;
    }
  }

  void SkipSpace() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  Status Error(std::string message) const {
    return InvalidArgument(message + " at offset " + std::to_string(pos_));
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  TreeBuilder builder_;
};

void EscapeInto(std::string_view text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
}

Status WriteNode(const Tree& tree, NodeId u, bool indent, int depth,
                 std::string& out) {
  const std::string& label = tree.LabelName(tree.label(u));
  if (label.empty() || label[0] == '#') {
    return InvalidArgument("label not serializable as XML: " + label);
  }
  if (indent) out.append(static_cast<std::size_t>(2 * depth), ' ');
  out += '<';
  out += label;
  for (AttrId a = 0; a < static_cast<AttrId>(tree.num_attributes()); ++a) {
    out += ' ';
    out += tree.attributes().NameOf(a);
    out += "=\"";
    EscapeInto(tree.values().Render(tree.attr(a, u)), out);
    out += '"';
  }
  if (tree.IsLeaf(u)) {
    out += "/>";
    if (indent) out += '\n';
    return Status::Ok();
  }
  out += '>';
  if (indent) out += '\n';
  for (NodeId c = tree.FirstChild(u); c != kNoNode; c = tree.NextSibling(c)) {
    TREEWALK_RETURN_IF_ERROR(WriteNode(tree, c, indent, depth + 1, out));
  }
  if (indent) out.append(static_cast<std::size_t>(2 * depth), ' ');
  out += "</";
  out += label;
  out += '>';
  if (indent) out += '\n';
  return Status::Ok();
}

}  // namespace

Result<Tree> ParseXml(std::string_view source) {
  return XmlParser(source).Parse();
}

Result<std::string> WriteXml(const Tree& tree, bool indent) {
  if (tree.empty()) return std::string();
  std::string out;
  TREEWALK_RETURN_IF_ERROR(WriteNode(tree, tree.root(), indent, 0, out));
  return out;
}

}  // namespace treewalk
