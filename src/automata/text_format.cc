#include "src/automata/text_format.h"

#include <cctype>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "src/automata/builder.h"
#include "src/common/interner.h"
#include "src/common/parse_decimal.h"

namespace treewalk {

namespace {

/// Splits one line into tokens.  Double-quoted spans and bracketed spans
/// become single tokens (quotes/brackets stripped).
Result<std::vector<std::string>> Tokenize(const std::string& line,
                                          int line_number) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  auto err = [line_number](const std::string& message) {
    return InvalidArgument("line " + std::to_string(line_number) + ": " +
                           message);
  };
  while (i < line.size()) {
    char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '"' || c == '[') {
      char close = c == '"' ? '"' : ']';
      std::size_t end = line.find(close, i + 1);
      if (end == std::string::npos) {
        return err(std::string("unterminated ") + c);
      }
      tokens.push_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
      continue;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != '"' && line[i] != '[') {
      ++i;
    }
    tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Result<Move> ParseMove(const std::string& word, int line_number) {
  if (word == "stay") return Move::kStay;
  if (word == "left") return Move::kLeft;
  if (word == "right") return Move::kRight;
  if (word == "up") return Move::kUp;
  if (word == "down") return Move::kDown;
  return InvalidArgument("line " + std::to_string(line_number) +
                         ": unknown direction '" + word + "'");
}

/// Parses "reg(u, v)" into name + variable list; bare "reg" is allowed
/// for arity 0.
Result<std::pair<std::string, std::vector<std::string>>> ParseRegisterRef(
    const std::string& token, int line_number) {
  auto err = [line_number](const std::string& message) {
    return InvalidArgument("line " + std::to_string(line_number) + ": " +
                           message);
  };
  std::size_t open = token.find('(');
  if (open == std::string::npos) {
    return std::make_pair(token, std::vector<std::string>{});
  }
  if (token.back() != ')') return err("expected ')' in register reference");
  std::string name = token.substr(0, open);
  std::vector<std::string> vars;
  std::string body = token.substr(open + 1, token.size() - open - 2);
  std::string current;
  for (char c : body) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) vars.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) vars.push_back(std::move(current));
  return std::make_pair(std::move(name), std::move(vars));
}

}  // namespace

Result<Program> ParseProgramText(std::string_view source) {
  std::istringstream stream{std::string(source)};
  std::string line;
  int line_number = 0;

  bool have_class = false;
  ProgramClass program_class = ProgramClass::kTw;
  std::unique_ptr<ProgramBuilder> builder;

  // `class` (and ideally `states`) must precede registers and rules.
  auto err = [&line_number](const std::string& message) {
    return InvalidArgument("line " + std::to_string(line_number) + ": " +
                           message);
  };

  std::string initial_state, final_state;
  bool have_states = false;

  auto ensure_builder = [&]() -> Status {
    if (builder != nullptr) return Status::Ok();
    if (!have_class) {
      return InvalidArgument("'class' directive must come first");
    }
    builder = std::make_unique<ProgramBuilder>(program_class);
    if (have_states) builder->SetStates(initial_state, final_state);
    return Status::Ok();
  };

  while (std::getline(stream, line)) {
    ++line_number;
    TREEWALK_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                              Tokenize(line, line_number));
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& directive = tokens[0];

    if (directive == "class") {
      if (tokens.size() != 2) return err("usage: class <tw|twl|twr|twrl>");
      if (tokens[1] == "tw") {
        program_class = ProgramClass::kTw;
      } else if (tokens[1] == "twl") {
        program_class = ProgramClass::kTwL;
      } else if (tokens[1] == "twr") {
        program_class = ProgramClass::kTwR;
      } else if (tokens[1] == "twrl") {
        program_class = ProgramClass::kTwRL;
      } else {
        return err("unknown class '" + tokens[1] + "'");
      }
      have_class = true;
      continue;
    }
    if (directive == "states") {
      if (tokens.size() != 3) return err("usage: states <initial> <final>");
      initial_state = tokens[1];
      final_state = tokens[2];
      have_states = true;
      if (builder != nullptr) builder->SetStates(initial_state, final_state);
      continue;
    }
    if (directive == "register") {
      if (tokens.size() != 3) return err("usage: register <name> <arity>");
      TREEWALK_RETURN_IF_ERROR(ensure_builder());
      int arity = 0;
      if (!ParseDecimal(tokens[2].c_str(), arity)) {
        return err("register arity '" + tokens[2] +
                   "' is not a decimal number");
      }
      builder->DeclareRegister(tokens[1], arity);
      continue;
    }
    if (directive == "init") {
      // init NAME { (v1 v2) (v3 v4) ... }  -- commas optional.
      if (tokens.size() < 4 || tokens[2] != "{" || tokens.back() != "}") {
        return err("usage: init <name> { (v ...) ... }");
      }
      TREEWALK_RETURN_IF_ERROR(ensure_builder());
      // Re-scan the tuple region between '{' and '}' from the raw tokens:
      // tokens like "(5" "6)" or "(5)" appear; strip parens and group.
      std::vector<Tuple> tuples;
      Tuple current;
      bool in_tuple = false;
      for (std::size_t t = 3; t + 1 < tokens.size(); ++t) {
        std::string piece = tokens[t];
        while (!piece.empty() && piece.front() == '(') {
          in_tuple = true;
          piece.erase(piece.begin());
        }
        bool closes = false;
        while (!piece.empty() && (piece.back() == ')' || piece.back() == ',')) {
          if (piece.back() == ')') closes = true;
          piece.pop_back();
        }
        if (!piece.empty()) {
          if (!in_tuple) return err("value outside a tuple in init");
          const std::optional<DataValue> value =
              ValueInterner::ParseInteger(piece);
          if (!value.has_value()) {
            return err("init value '" + piece +
                       "' is not an integer in range");
          }
          current.push_back(*value);
        }
        if (closes) {
          tuples.push_back(std::move(current));
          current.clear();
          in_tuple = false;
        }
      }
      if (in_tuple) return err("unterminated tuple in init");
      int arity = tuples.empty() ? 0 : static_cast<int>(tuples[0].size());
      for (const Tuple& t : tuples) {
        if (static_cast<int>(t.size()) != arity) {
          return err("mixed tuple arities in init");
        }
      }
      builder->InitRegisterRelation(tokens[1], Relation(arity, tuples));
      continue;
    }
    if (directive == "rule") {
      // rule LABEL STATE [guard] <action...>
      if (tokens.size() < 5) return err("rule too short");
      TREEWALK_RETURN_IF_ERROR(ensure_builder());
      const std::string& label = tokens[1];
      const std::string& state = tokens[2];
      const std::string& guard = tokens[3];
      const std::string& action = tokens[4];
      if (action == "move") {
        if (tokens.size() != 7) {
          return err("usage: ... move <dir> <next-state>");
        }
        TREEWALK_ASSIGN_OR_RETURN(Move move,
                                  ParseMove(tokens[5], line_number));
        builder->OnMove(label, state, guard, tokens[6], move);
        continue;
      }
      if (action == "update") {
        if (tokens.size() != 8) {
          return err("usage: ... update <reg>(vars) \"psi\" <next-state>");
        }
        TREEWALK_ASSIGN_OR_RETURN(auto reg,
                                  ParseRegisterRef(tokens[5], line_number));
        builder->OnUpdate(label, state, guard, tokens[7], reg.first,
                          tokens[6], reg.second);
        continue;
      }
      if (action == "atp") {
        if (tokens.size() != 9) {
          return err(
              "usage: ... atp <reg> \"phi\" <call-state> <next-state>");
        }
        builder->OnLookAhead(label, state, guard, tokens[8], tokens[5],
                             tokens[6], tokens[7]);
        continue;
      }
      return err("unknown action '" + action + "'");
    }
    return err("unknown directive '" + directive + "'");
  }
  if (builder == nullptr) {
    TREEWALK_RETURN_IF_ERROR(ensure_builder());
  }
  return builder->Build();
}

std::string ProgramToText(const Program& program) {
  std::string out;
  out += "class ";
  switch (program.program_class()) {
    case ProgramClass::kTw:
      out += "tw";
      break;
    case ProgramClass::kTwL:
      out += "twl";
      break;
    case ProgramClass::kTwR:
      out += "twr";
      break;
    case ProgramClass::kTwRL:
      out += "twrl";
      break;
  }
  out += "\nstates " + program.initial_state() + " " +
         program.final_state() + "\n";
  const Store& store = program.initial_store();
  for (std::size_t i = 0; i < store.num_relations(); ++i) {
    out += "register " + store.NameAt(i) + " " +
           std::to_string(store.At(i).arity()) + "\n";
    if (!store.At(i).empty()) {
      out += "init " + store.NameAt(i) + " {";
      for (const Tuple& t : store.At(i).tuples()) {
        out += " (";
        for (std::size_t j = 0; j < t.size(); ++j) {
          if (j > 0) out += " ";
          out += std::to_string(t[j]);
        }
        out += ")";
      }
      out += " }\n";
    }
  }
  for (const Rule& rule : program.rules()) {
    out += "rule " + rule.label + " " + rule.state + " [" +
           rule.guard.ToString() + "] ";
    const Action& action = rule.action;
    switch (action.kind) {
      case Action::Kind::kMove:
        out += std::string("move ") + MoveName(action.move) + " " +
               action.next_state;
        break;
      case Action::Kind::kUpdate: {
        out += "update " +
               store.NameAt(static_cast<std::size_t>(action.register_index)) +
               "(";
        // No spaces: the register reference must tokenize as one word.
        for (std::size_t j = 0; j < action.update_vars.size(); ++j) {
          if (j > 0) out += ",";
          out += action.update_vars[j];
        }
        out += ") \"" + action.update.ToString() + "\" " + action.next_state;
        break;
      }
      case Action::Kind::kLookAhead:
        out += "atp " +
               store.NameAt(static_cast<std::size_t>(action.register_index)) +
               " \"" + action.selector.ToString() + "\" " +
               action.call_state + " " + action.next_state;
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace treewalk
