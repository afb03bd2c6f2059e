#include "core/dump.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/lexer.h"
#include "util/string_util.h"

namespace logres {

namespace {

bool IsBackingAssociation(const std::string& name) {
  return StartsWith(name, "$FN$");
}

}  // namespace

std::string SchemaToSource(const Schema& schema) {
  std::string out;
  auto section = [&](const std::vector<std::string>& names,
                     const char* keyword) {
    bool any = false;
    for (const std::string& name : names) {
      if (IsBackingAssociation(name)) continue;
      if (!any) {
        out += keyword;
        out += "\n";
        any = true;
      }
      auto type = schema.TypeOf(name);
      out += StrCat("  ", name, " = ", type.value().ToString(), ";\n");
    }
  };
  section(schema.DomainNames(), "domains");
  section(schema.ClassNames(), "classes");
  bool any_isa = false;
  for (const IsaDecl& d : schema.isa_decls()) {
    if (!any_isa) {
      // isa declarations live in a classes section.
      out += "classes\n";
      any_isa = true;
    }
    if (d.component_label.empty()) {
      out += StrCat("  ", d.sub, " isa ", d.super, ";\n");
    } else {
      out += StrCat("  ", d.sub, " ", d.component_label, " isa ", d.super,
                    ";\n");
    }
  }
  for (const auto& [key, new_label] : schema.renames()) {
    out += StrCat("classes\n  ", std::get<0>(key), " renames ",
                  std::get<2>(key), " from ", std::get<1>(key), " as ",
                  new_label, ";\n");
  }
  section(schema.AssociationNames(), "associations");
  return out;
}

std::string ValueToSource(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kOid:
      return StrCat("oid(", value.oid_value().id, ")");
    case ValueKind::kString: {
      // Escape so the lexer reads the exact payload back.
      std::string out = "\"";
      for (char c : value.string_value()) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
      }
      out += '"';
      return out;
    }
    case ValueKind::kTuple:
      return StrCat(
          "(",
          JoinMapped(value.tuple_fields(), ", ",
                     [](const std::pair<std::string, Value>& f) {
                       return StrCat(f.first, ": ",
                                     ValueToSource(f.second));
                     }),
          ")");
    case ValueKind::kSet:
      return StrCat("{",
                    JoinMapped(value.elements(), ", ", ValueToSource),
                    "}");
    case ValueKind::kMultiset:
      return StrCat("[",
                    JoinMapped(value.elements(), ", ", ValueToSource),
                    "]");
    case ValueKind::kSequence:
      return StrCat("<",
                    JoinMapped(value.elements(), ", ", ValueToSource),
                    ">");
    default:
      return value.ToString();
  }
}

namespace {

// Recursive-descent value parser over the shared token stream.
//
// Construction goes through the ordinary Value factories, so loading a
// dump (or replaying a journal through it) rebuilds the interned heap
// deterministically when interning is on: every parsed value resolves to
// its canonical node bottom-up, and the parse is insensitive to which
// values already exist — dumps emitted afterwards are byte-identical
// with interning on or off.
class ValueParser {
 public:
  explicit ValueParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_];
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool Accept(TokenKind kind) {
    if (At(kind)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, const char* what) {
    if (Accept(kind)) return Status::OK();
    return Status::ParseError(
        StrCat("expected ", what, ", found ", Peek().Describe(), " at line ",
               Peek().line));
  }
  bool AtEnd() const { return At(TokenKind::kEof); }

  Result<Value> ParseOne() {
    // Hostile dumps may nest collections arbitrarily deep; bound the
    // recursion like the main parser does (kMaxNestingDepth there) so a
    // crafted file cannot overflow the stack.
    static constexpr int kMaxValueNestingDepth = 200;
    if (depth_ >= kMaxValueNestingDepth) {
      return Status::ParseError(
          StrCat("value nesting exceeds depth ", kMaxValueNestingDepth));
    }
    depth_++;
    Result<Value> result = ParseOneInner();
    depth_--;
    return result;
  }

 private:
  Result<Value> ParseOneInner() {
    if (At(TokenKind::kInt)) return Value::Int(Advance().int_value);
    if (At(TokenKind::kMinus) && Peek(1).kind == TokenKind::kInt) {
      Advance();
      return Value::Int(-Advance().int_value);
    }
    if (At(TokenKind::kMinus) && Peek(1).kind == TokenKind::kReal) {
      Advance();
      return Value::Real(-Advance().real_value);
    }
    if (At(TokenKind::kReal)) return Value::Real(Advance().real_value);
    if (At(TokenKind::kString)) return Value::String(Advance().text);
    if (At(TokenKind::kIdent)) {
      std::string word = ToLower(Peek().text);
      if (word == "nil") {
        Advance();
        return Value::Nil();
      }
      if (word == "true" || word == "false") {
        Advance();
        return Value::Bool(word == "true");
      }
      if (word == "oid") {
        Advance();
        LOGRES_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
        if (!At(TokenKind::kInt)) {
          return Status::ParseError("expected an oid number");
        }
        Oid oid{static_cast<uint64_t>(Advance().int_value)};
        LOGRES_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        return Value::MakeOid(oid);
      }
      return Status::ParseError(
          StrCat("unexpected identifier '", Peek().text, "' in value"));
    }
    if (Accept(TokenKind::kLParen)) {
      std::vector<std::pair<std::string, Value>> fields;
      if (!At(TokenKind::kRParen)) {
        for (;;) {
          if (!At(TokenKind::kIdent)) {
            return Status::ParseError("expected a field label");
          }
          std::string label = ToLower(Advance().text);
          LOGRES_RETURN_NOT_OK(Expect(TokenKind::kColon, "':'"));
          LOGRES_ASSIGN_OR_RETURN(Value v, ParseOne());
          fields.emplace_back(std::move(label), std::move(v));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      LOGRES_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      return Value::MakeTuple(std::move(fields));
    }
    auto collection = [&](TokenKind close, const char* what,
                          auto make) -> Result<Value> {
      std::vector<Value> elems;
      if (!At(close)) {
        for (;;) {
          LOGRES_ASSIGN_OR_RETURN(Value v, ParseOne());
          elems.push_back(std::move(v));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      LOGRES_RETURN_NOT_OK(Expect(close, what));
      return make(std::move(elems));
    };
    if (Accept(TokenKind::kLBrace)) {
      return collection(TokenKind::kRBrace, "'}'", Value::MakeSet);
    }
    if (Accept(TokenKind::kLBracket)) {
      return collection(TokenKind::kRBracket, "']'", Value::MakeMultiset);
    }
    if (Accept(TokenKind::kLt)) {
      return collection(TokenKind::kGt, "'>'", Value::MakeSequence);
    }
    return Status::ParseError(
        StrCat("expected a value, found ", Peek().Describe()));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Value> ParseValue(const std::string& source) {
  LOGRES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ValueParser parser(std::move(tokens));
  LOGRES_ASSIGN_OR_RETURN(Value v, parser.ParseOne());
  if (!parser.AtEnd()) {
    return Status::ParseError("trailing input after value");
  }
  return v;
}

std::string ModuleToSource(const Module& module) {
  std::string out = StrCat("module ", module.name);
  if (module.default_mode.has_value()) {
    out += StrCat(" options ", ApplicationModeName(*module.default_mode));
  }
  if (module.semantics.has_value()) {
    out += StrCat(" semantics ", EvalModeName(*module.semantics));
  }
  out += "\n";
  out += SchemaToSource(module.schema);
  if (!module.functions.empty()) {
    out += "functions\n";
    for (const FunctionDecl& fn : module.functions) {
      out += StrCat("  ", fn.ToString(), ";\n");
    }
  }
  if (!module.rules.empty()) {
    out += "rules\n";
    for (const Rule& rule : module.rules) {
      out += StrCat("  ", rule.ToString(), "\n");
    }
  }
  if (module.goal.has_value()) {
    out += StrCat("goal\n  ", module.goal->ToString(), ".\n");
  }
  out += "end\n";
  return out;
}

std::string DumpDatabase(const Database& db) {
  // v2 adds `module` blocks (between rules and objects). The header is a
  // lexer comment, so v1 readers and writers interoperate either way.
  std::string out = "-- logres dump v2\n";
  out += StrCat("generator ", db.oids_issued(), ";\n");
  out += SchemaToSource(db.schema());
  if (!db.functions().empty()) {
    out += "functions\n";
    for (const FunctionDecl& fn : db.functions()) {
      out += StrCat("  ", fn.ToString(), ";\n");
    }
  }
  if (!db.rules().empty()) {
    out += "rules\n";
    for (const Rule& rule : db.rules()) {
      out += StrCat("  ", rule.ToString(), "\n");
    }
  }
  for (const Module& module : db.registered_modules()) {
    out += ModuleToSource(module);
  }
  const Instance& edb = db.edb();
  if (!edb.class_oids().empty()) {
    out += "objects\n";
    // Emit each oid once with its value, then bare memberships. Most
    // specific classes first is unnecessary: AdoptObject handles supers,
    // and explicit memberships cover multiple-inheritance leaves.
    std::map<Oid, bool> value_emitted;
    for (const auto& [cls, oids] : edb.class_oids()) {
      for (Oid oid : oids) {
        if (!value_emitted[oid]) {
          auto v = edb.OValue(oid);
          out += StrCat("  ", cls, " ", oid.id, " = ",
                        v.ok() ? ValueToSource(v.value()) : "nil", ";\n");
          value_emitted[oid] = true;
        } else {
          out += StrCat("  ", cls, " ", oid.id, ";\n");
        }
      }
    }
  }
  bool any_tuples = false;
  for (const auto& [assoc, tuples] : edb.associations()) {
    for (const Value& t : tuples) {
      if (!any_tuples) {
        out += "tuples\n";
        any_tuples = true;
      }
      out += StrCat("  ", assoc, " ", ValueToSource(t), ";\n");
    }
  }
  return out;
}

Result<Database> LoadDatabase(const std::string& dump) {
  // Split the dump into the unit part (schema/functions/rules) and the
  // data sections, which use their own grammar.
  std::vector<std::string> lines = Split(dump, '\n');
  std::string unit_text, data_text;
  bool in_data = false;
  std::string data_section;
  for (const std::string& line : lines) {
    std::string trimmed = line;
    while (!trimmed.empty() && (trimmed.front() == ' ')) {
      trimmed.erase(trimmed.begin());
    }
    if (trimmed == "objects" || trimmed == "tuples" ||
        StartsWith(trimmed, "generator ")) {
      in_data = true;
      data_text += line;
      data_text += '\n';
      continue;
    }
    if (in_data &&
        (trimmed == "domains" || trimmed == "classes" ||
         trimmed == "associations" || trimmed == "functions" ||
         trimmed == "rules" || StartsWith(trimmed, "module ") ||
         trimmed == "end")) {
      in_data = false;
    }
    if (in_data) {
      data_text += line;
      data_text += '\n';
    } else {
      unit_text += line;
      unit_text += '\n';
    }
  }

  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(unit_text));

  // Parse the data sections with the lexer.
  LOGRES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(data_text));
  ValueParser parser(std::move(tokens));
  enum class Section { kNone, kObjects, kTuples };
  Section section = Section::kNone;
  uint64_t generator_floor = 0;
  bool saw_generator = false;
  uint64_t max_used_oid = 0;
  std::set<uint64_t> valued_oids;  // oids given an explicit `=` value
  while (!parser.AtEnd()) {
    if (parser.At(TokenKind::kIdent)) {
      std::string word = ToLower(parser.Peek().text);
      if (word == "generator") {
        parser.Advance();
        if (!parser.At(TokenKind::kInt)) {
          return Status::ParseError("expected generator count");
        }
        generator_floor =
            static_cast<uint64_t>(parser.Advance().int_value);
        saw_generator = true;
        LOGRES_RETURN_NOT_OK(
            parser.Expect(TokenKind::kSemicolon, "';'"));
        continue;
      }
      if (word == "objects") {
        parser.Advance();
        section = Section::kObjects;
        continue;
      }
      if (word == "tuples") {
        parser.Advance();
        section = Section::kTuples;
        continue;
      }
      // An entry: NAME ... ;
      std::string name = ToUpper(parser.Advance().text);
      if (section == Section::kObjects) {
        if (!parser.At(TokenKind::kInt)) {
          return Status::ParseError(
              StrCat("expected an oid number after ", name));
        }
        Oid oid{static_cast<uint64_t>(parser.Advance().int_value)};
        if (oid.id > max_used_oid) max_used_oid = oid.id;
        Value value = Value::Nil();
        bool has_value = false;
        if (parser.Accept(TokenKind::kEq)) {
          LOGRES_ASSIGN_OR_RETURN(value, parser.ParseOne());
          has_value = true;
        }
        LOGRES_RETURN_NOT_OK(parser.Expect(TokenKind::kSemicolon, "';'"));
        if (has_value) {
          // A well-formed dump assigns each oid its o-value exactly once
          // (further class memberships are bare `CLASS n;` lines); a
          // second assignment is a corrupt or hostile dump, and silently
          // letting the later one win would mask the corruption.
          if (!valued_oids.insert(oid.id).second) {
            return Status::ParseError(
                StrCat("duplicate o-value assignment for oid ", oid.id));
          }
          max_used_oid = std::max(max_used_oid, MaxOidIn(value));
          LOGRES_RETURN_NOT_OK(db.mutable_edb()->AdoptObject(
              db.schema(), name, oid, std::move(value)));
        } else {
          auto existing = db.mutable_edb()->OValue(oid);
          LOGRES_RETURN_NOT_OK(db.mutable_edb()->AdoptObject(
              db.schema(), name, oid,
              existing.ok() ? existing.value() : Value::Nil()));
        }
        continue;
      }
      if (section == Section::kTuples) {
        LOGRES_ASSIGN_OR_RETURN(Value tuple, parser.ParseOne());
        LOGRES_RETURN_NOT_OK(parser.Expect(TokenKind::kSemicolon, "';'"));
        max_used_oid = std::max(max_used_oid, MaxOidIn(tuple));
        db.mutable_edb()->InsertTuple(name, std::move(tuple));
        continue;
      }
      return Status::ParseError(
          StrCat("entry '", name, "' outside objects/tuples section"));
    }
    return Status::ParseError(
        StrCat("unexpected ", parser.Peek().Describe(), " in dump"));
  }

  // A generator position below an oid the dump itself uses would hand
  // out colliding oids later; reject it instead of silently corrupting
  // the store. (An absent generator line with objects present is the
  // degenerate case generator_floor = 0.)
  if (max_used_oid > generator_floor) {
    return Status::ParseError(
        StrCat("generator position ", generator_floor,
               saw_generator ? "" : " (no generator line)",
               " is below the maximum oid used in the dump (",
               max_used_oid, ")"));
  }
  // Restore the oid generator position so future invented oids do not
  // collide with loaded ones.
  db.oid_generator()->FastForward(generator_floor);
  return db;
}

}  // namespace logres
