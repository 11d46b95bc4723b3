#include "src/testing/testgen.h"

#include <algorithm>

#include "src/support/rng.h"

namespace vc {
namespace testing {

std::string SourceFile::Content() const {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> TestProgram::ToSources() const {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const SourceFile& file : files) {
    sources.emplace_back(file.path, file.Content());
  }
  return sources;
}

int TestProgram::TotalLines() const {
  int total = 0;
  for (const SourceFile& file : files) {
    total += static_cast<int>(file.lines.size());
  }
  return total;
}

namespace {

// Type categories the generator tracks. Mini-C collapses the integer family,
// so Int covers int/long/size_t; Char and Bool exist for grammar coverage.
enum class Kind { kInt, kPtrInt, kChar, kBool, kStructVal };

struct Var {
  std::string name;
  Kind kind = Kind::kInt;
  int struct_index = -1;  // into Planner::structs_ when kind == kStructVal
};

struct StructPlan {
  std::string name;
  std::vector<std::string> fields;
  int file = 0;
};

struct FuncPlan {
  std::string name;
  Kind return_kind = Kind::kInt;  // kBool stands in for "void" never; see returns_void
  bool returns_void = false;
  bool is_static = false;
  std::vector<Kind> param_kinds;
  std::vector<int> param_structs;  // struct index per param (struct-ptr params)
  int file = 0;
};

struct EnumPlan {
  std::vector<std::pair<std::string, int>> constants;
  int file = 0;
};

class Generator {
 public:
  Generator(uint64_t seed, const GenOptions& options) : rng_(seed), options_(options) {}

  TestProgram Run(uint64_t seed) {
    TestProgram program;
    program.seed = seed;
    Plan();
    for (int f = 0; f < num_files_; ++f) {
      program.files.push_back(EmitFile(f));
    }
    return program;
  }

 private:
  // --- Planning: signatures first so bodies can call forward/cross-file ----

  void Plan() {
    num_files_ = static_cast<int>(
        rng_.NextInRange(options_.min_files, std::max(options_.min_files, options_.max_files)));
    for (int f = 0; f < num_files_; ++f) {
      if (options_.gen_structs && rng_.NextBool(0.6)) {
        StructPlan st;
        st.name = MintName("st");
        st.file = f;
        int nfields = static_cast<int>(rng_.NextInRange(2, 3));
        for (int i = 0; i < nfields; ++i) {
          st.fields.push_back(MintName("fd"));
        }
        structs_.push_back(st);
      }
      if (options_.gen_enums && rng_.NextBool(0.4)) {
        EnumPlan en;
        en.file = f;
        int n = static_cast<int>(rng_.NextInRange(2, 3));
        for (int i = 0; i < n; ++i) {
          en.constants.emplace_back(MintName("EN"),
                                    static_cast<int>(rng_.NextInRange(0, 40)));
        }
        enums_.push_back(en);
      }
      if (options_.gen_typedefs && rng_.NextBool(0.3)) {
        typedefs_.push_back({MintName("td"), f});
      }
      if (options_.gen_globals && rng_.NextBool(0.5)) {
        int n = static_cast<int>(rng_.NextInRange(1, 2));
        for (int i = 0; i < n; ++i) {
          globals_.push_back({MintName("g"), f});
        }
      }
      int nfuncs = static_cast<int>(rng_.NextInRange(1, options_.max_functions_per_file));
      for (int i = 0; i < nfuncs; ++i) {
        FuncPlan fn;
        fn.name = MintName("fn");
        fn.file = f;
        fn.is_static = rng_.NextBool(0.15);
        double which = rng_.NextDouble();
        if (which < 0.15) {
          fn.returns_void = true;
        } else if (which < 0.3 && options_.gen_pointers) {
          fn.return_kind = Kind::kPtrInt;
        } else {
          fn.return_kind = Kind::kInt;
        }
        int nparams = static_cast<int>(rng_.NextInRange(0, 3));
        for (int p = 0; p < nparams; ++p) {
          double pick = rng_.NextDouble();
          if (pick < 0.55) {
            fn.param_kinds.push_back(Kind::kInt);
            fn.param_structs.push_back(-1);
          } else if (pick < 0.7 && options_.gen_pointers) {
            fn.param_kinds.push_back(Kind::kPtrInt);
            fn.param_structs.push_back(-1);
          } else if (pick < 0.8) {
            fn.param_kinds.push_back(Kind::kChar);
            fn.param_structs.push_back(-1);
          } else if (pick < 0.9) {
            fn.param_kinds.push_back(Kind::kBool);
            fn.param_structs.push_back(-1);
          } else if (FileStruct(f) >= 0) {
            fn.param_kinds.push_back(Kind::kStructVal);  // passed as struct*
            fn.param_structs.push_back(FileStruct(f));
          } else {
            fn.param_kinds.push_back(Kind::kInt);
            fn.param_structs.push_back(-1);
          }
        }
        funcs_.push_back(fn);
      }
    }
  }

  // First struct declared in `file`, or -1.
  int FileStruct(int file) const {
    for (size_t i = 0; i < structs_.size(); ++i) {
      if (structs_[i].file == file) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // --- Emission ------------------------------------------------------------

  SourceFile EmitFile(int f) {
    SourceFile file;
    file.path = options_.file_prefix + "gen" + std::to_string(f) + ".c";
    lines_ = &file.lines;

    for (const StructPlan& st : structs_) {
      if (st.file != f) {
        continue;
      }
      Line("struct " + st.name + " {");
      for (const std::string& field : st.fields) {
        Line("  int " + field + ";");
      }
      Line("};");
    }
    for (const EnumPlan& en : enums_) {
      if (en.file != f) {
        continue;
      }
      std::string decl = "enum {";
      for (size_t i = 0; i < en.constants.size(); ++i) {
        if (i > 0) {
          decl += ",";
        }
        decl += " " + en.constants[i].first + " = " + std::to_string(en.constants[i].second);
      }
      decl += " };";
      Line(decl);
    }
    for (const auto& [name, tf] : typedefs_) {
      if (tf == f) {
        Line("typedef int " + name + ";");
      }
    }
    for (const auto& [name, gf] : globals_) {
      if (gf == f) {
        Line("int " + name + " = " + std::to_string(rng_.NextInRange(0, 9)) + ";");
      }
    }

    for (const FuncPlan& fn : funcs_) {
      if (fn.file != f) {
        continue;
      }
      Line("");
      EmitFunction(fn);
    }
    lines_ = nullptr;
    return file;
  }

  void EmitFunction(const FuncPlan& fn) {
    scope_.clear();
    current_file_ = fn.file;

    std::string sig;
    if (fn.is_static) {
      sig += "static ";
    }
    sig += fn.returns_void ? "void" : TypeName(fn.return_kind, -1);
    sig += " " + fn.name + "(";
    for (size_t p = 0; p < fn.param_kinds.size(); ++p) {
      if (p > 0) {
        sig += ", ";
      }
      Var param;
      param.name = MintName("v");
      param.kind = fn.param_kinds[p];
      param.struct_index = fn.param_structs[p];
      if (param.kind == Kind::kStructVal) {
        // Struct parameters travel as pointers; tracked separately so value
        // accessors (dot syntax) never apply to them.
        sig += "struct " + structs_[static_cast<size_t>(param.struct_index)].name + "* " +
               param.name;
        struct_ptr_params_.push_back(param.name);
      } else {
        sig += TypeName(param.kind, -1) + " " + param.name;
        scope_.push_back(param);
      }
    }
    sig += ") {";
    Line(sig);

    // Globals of this file are assignable ints in scope.
    for (const auto& [name, gf] : globals_) {
      if (gf == current_file_) {
        scope_.push_back({name, Kind::kInt, -1});
      }
    }

    int budget = static_cast<int>(rng_.NextInRange(3, options_.max_stmts_per_function));
    EmitBlock(1, 0, budget);

    if (fn.returns_void) {
      if (rng_.NextBool(0.5)) {
        Line("  return;");
      }
    } else if (fn.return_kind == Kind::kPtrInt) {
      const Var* iv = PickVar(Kind::kInt, true);
      Line(iv != nullptr ? "  return &" + iv->name + ";" : "  return NULL;");
    } else {
      Line("  return " + IntExpr(0) + ";");
    }
    Line("}");
    struct_ptr_params_.clear();
  }

  void EmitBlock(int indent, int depth, int budget) {
    size_t scope_mark = scope_.size();
    while (budget > 0) {
      int used = EmitStmt(indent, depth, budget);
      budget -= std::max(1, used);
    }
    scope_.resize(scope_mark);
  }

  // Emits one statement; returns the statement budget it consumed (compound
  // statements count their body).
  int EmitStmt(int indent, int depth, int budget) {
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    enum StmtKind {
      kDeclInit,
      kDeclNoInit,
      kDeclPtr,
      kDeclStruct,
      kDeclCharBool,
      kDeclTypedef,
      kAssign,
      kCompoundAssign,
      kIncrement,
      kCallStmt,
      kAssignFromCall,
      kDeclFromCall,
      kStoreThroughPtr,
      kStructField,
      kFieldThroughPtr,
      kIf,
      kWhile,
      kFor,
      kDoWhile,
      kSwitch,
    };
    std::vector<double> weights = {
        3.0,                                   // kDeclInit
        0.8,                                   // kDeclNoInit
        options_.gen_pointers ? 1.0 : 0.0,     // kDeclPtr
        options_.gen_structs ? 0.8 : 0.0,      // kDeclStruct
        0.6,                                   // kDeclCharBool
        options_.gen_typedefs ? 0.4 : 0.0,     // kDeclTypedef
        3.0,                                   // kAssign
        1.2,                                   // kCompoundAssign
        1.0,                                   // kIncrement
        1.2,                                   // kCallStmt
        2.0,                                   // kAssignFromCall
        2.0,                                   // kDeclFromCall
        options_.gen_pointers ? 0.8 : 0.0,     // kStoreThroughPtr
        options_.gen_structs ? 1.0 : 0.0,      // kStructField
        options_.gen_structs && options_.gen_pointers && options_.gen_field_pointers
            ? 0.4
            : 0.0,  // kFieldThroughPtr
        depth < options_.max_block_depth ? 1.4 : 0.0,  // kIf
        depth < options_.max_block_depth ? 0.6 : 0.0,  // kWhile
        depth < options_.max_block_depth ? 0.9 : 0.0,  // kFor
        depth < options_.max_block_depth ? 0.3 : 0.0,  // kDoWhile
        depth < options_.max_block_depth ? 0.5 : 0.0,  // kSwitch
    };
    switch (static_cast<StmtKind>(rng_.NextWeighted(weights))) {
      case kDeclInit: {
        Var v = NewVar(Kind::kInt);
        Line(pad + "int " + v.name + " = " + IntExpr(0) + ";");
        scope_.push_back(v);
        return 1;
      }
      case kDeclNoInit: {
        Var v = NewVar(Kind::kInt);
        Line(pad + "int " + v.name + ";");
        scope_.push_back(v);
        return 1;
      }
      case kDeclPtr: {
        const Var* target = PickVar(Kind::kInt, true);
        Var v = NewVar(Kind::kPtrInt);
        Line(pad + "int* " + v.name + " = " +
             (target != nullptr ? "&" + target->name : "NULL") + ";");
        scope_.push_back(v);
        return 1;
      }
      case kDeclStruct: {
        int st = FileStruct(current_file_);
        if (st < 0) {
          return EmitStmt(indent, depth, budget);
        }
        Var v = NewVar(Kind::kStructVal);
        v.struct_index = st;
        Line(pad + "struct " + structs_[static_cast<size_t>(st)].name + " " + v.name + ";");
        scope_.push_back(v);
        return 1;
      }
      case kDeclCharBool: {
        if (rng_.NextBool(0.5)) {
          Var v = NewVar(Kind::kChar);
          Line(pad + "char " + v.name + " = '" +
               static_cast<char>('a' + rng_.NextBelow(26)) + "';");
          scope_.push_back(v);
        } else {
          Var v = NewVar(Kind::kBool);
          Line(pad + "bool " + v.name + " = " + (rng_.NextBool(0.5) ? "true" : "false") + ";");
          scope_.push_back(v);
        }
        return 1;
      }
      case kDeclTypedef: {
        const std::string* td = FileTypedef(current_file_);
        if (td == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Var v = NewVar(Kind::kInt);
        Line(pad + *td + " " + v.name + " = " + IntExpr(0) + ";");
        scope_.push_back(v);
        return 1;
      }
      case kAssign: {
        const Var* v = PickVar(Kind::kInt, true);
        if (v == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Line(pad + v->name + " = " + IntExpr(0) + ";");
        return 1;
      }
      case kCompoundAssign: {
        const Var* v = PickVar(Kind::kInt, true);
        if (v == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        static const char* kOps[] = {"+=", "-=", "*=", "|=", "&="};
        Line(pad + v->name + " " + kOps[rng_.NextBelow(5)] + " " + IntExpr(1) + ";");
        return 1;
      }
      case kIncrement: {
        const Var* v = PickVar(Kind::kInt, true);
        if (v == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        double pick = rng_.NextDouble();
        if (pick < 0.4) {
          Line(pad + v->name + "++;");
        } else if (pick < 0.6) {
          Line(pad + "++" + v->name + ";");
        } else {
          Line(pad + v->name + " += " + std::to_string(rng_.NextInRange(1, 8)) + ";");
        }
        return 1;
      }
      case kCallStmt: {
        const FuncPlan* fn = PickCallee(/*want_int=*/false);
        if (fn == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Line(pad + CallExprFor(*fn) + ";");
        return 1;
      }
      case kAssignFromCall: {
        const Var* v = PickVar(Kind::kInt, true);
        const FuncPlan* fn = PickCallee(/*want_int=*/true);
        if (v == nullptr || fn == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Line(pad + v->name + " = " + CallExprFor(*fn) + ";");
        return 1;
      }
      case kDeclFromCall: {
        const FuncPlan* fn = PickCallee(/*want_int=*/true);
        if (fn == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Var v = NewVar(Kind::kInt);
        Line(pad + "int " + v.name + " = " + CallExprFor(*fn) + ";");
        scope_.push_back(v);
        return 1;
      }
      case kStoreThroughPtr: {
        const Var* p = PickVar(Kind::kPtrInt, true);
        if (p == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Line(pad + "*" + p->name + " = " + IntExpr(0) + ";");
        return 1;
      }
      case kStructField: {
        const Var* sv = PickVar(Kind::kStructVal, true);
        if (sv == nullptr && !struct_ptr_params_.empty()) {
          // Write through a struct-pointer parameter instead.
          int st = FileStruct(current_file_);
          if (st >= 0) {
            const StructPlan& plan = structs_[static_cast<size_t>(st)];
            const std::string& field = plan.fields[rng_.NextBelow(plan.fields.size())];
            Line(pad + struct_ptr_params_[rng_.NextBelow(struct_ptr_params_.size())] + "->" +
                 field + " = " + IntExpr(0) + ";");
            return 1;
          }
        }
        if (sv == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        const StructPlan& plan = structs_[static_cast<size_t>(sv->struct_index)];
        const std::string& field = plan.fields[rng_.NextBelow(plan.fields.size())];
        Line(pad + sv->name + "." + field + " = " + IntExpr(0) + ";");
        return 1;
      }
      case kFieldThroughPtr: {
        // A local struct's fields reached through a pointer to it: a store
        // and a load through `p->f`, so points-to lands on its field slots.
        const Var* sv = PickVar(Kind::kStructVal, true);
        if (sv == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        const StructPlan& plan = structs_[static_cast<size_t>(sv->struct_index)];
        const std::string ptr = MintName("p");
        Line(pad + "struct " + plan.name + "* " + ptr + " = &" + sv->name + ";");
        Line(pad + ptr + "->" + plan.fields[rng_.NextBelow(plan.fields.size())] + " = " +
             IntExpr(0) + ";");
        Var v = NewVar(Kind::kInt);
        Line(pad + "int " + v.name + " = " + ptr + "->" +
             plan.fields[rng_.NextBelow(plan.fields.size())] + ";");
        scope_.push_back(v);
        return 1;
      }
      case kIf: {
        int body = 1 + static_cast<int>(rng_.NextBelow(3));
        Line(pad + "if " + CondExpr() + " {");
        EmitBlock(indent + 1, depth + 1, body);
        int used = body;
        if (rng_.NextBool(0.45)) {
          int else_body = 1 + static_cast<int>(rng_.NextBelow(2));
          Line(pad + "} else {");
          EmitBlock(indent + 1, depth + 1, else_body);
          used += else_body;
        }
        Line(pad + "}");
        return used + 1;
      }
      case kWhile: {
        int body = 1 + static_cast<int>(rng_.NextBelow(2));
        Line(pad + "while " + CondExpr() + " {");
        EmitBlock(indent + 1, depth + 1, body);
        Line(pad + "  break;");
        Line(pad + "}");
        return body + 1;
      }
      case kFor: {
        Var idx = NewVar(Kind::kInt);
        int body = 1 + static_cast<int>(rng_.NextBelow(2));
        Line(pad + "for (int " + idx.name + " = 0; " + idx.name + " < " +
             std::to_string(rng_.NextInRange(2, 9)) + "; " + idx.name + "++) {");
        scope_.push_back(idx);
        EmitBlock(indent + 1, depth + 1, body);
        scope_.pop_back();
        Line(pad + "}");
        return body + 1;
      }
      case kDoWhile: {
        int body = 1 + static_cast<int>(rng_.NextBelow(2));
        Line(pad + "do {");
        EmitBlock(indent + 1, depth + 1, body);
        Line(pad + "} while " + CondExpr() + ";");
        return body + 1;
      }
      case kSwitch: {
        const Var* v = PickVar(Kind::kInt, true);
        if (v == nullptr) {
          return EmitStmt(indent, depth, budget);
        }
        Line(pad + "switch (" + v->name + ") {");
        int ncases = static_cast<int>(rng_.NextInRange(1, 2));
        int used = 0;
        for (int c = 0; c < ncases; ++c) {
          Line(pad + "  case " + std::to_string(c * 3 + static_cast<int>(rng_.NextBelow(3))) +
               ": {");
          EmitBlock(indent + 2, depth + 1, 1);
          Line(pad + "    break;");
          Line(pad + "  }");
          ++used;
        }
        Line(pad + "  default: {");
        EmitBlock(indent + 2, depth + 1, 1);
        Line(pad + "    break;");
        Line(pad + "  }");
        Line(pad + "}");
        return used + 2;
      }
    }
    return 1;
  }

  // --- Expressions ---------------------------------------------------------

  std::string IntExpr(int depth) {
    std::vector<double> weights = {
        2.0,  // literal
        3.0,  // int var
        depth < options_.max_expr_depth ? 2.0 : 0.0,  // binary
        depth < options_.max_expr_depth ? 0.7 : 0.0,  // unary
        depth < options_.max_expr_depth ? 0.8 : 0.0,  // call
        depth < options_.max_expr_depth ? 0.4 : 0.0,  // ternary
        options_.gen_pointers ? 0.5 : 0.0,            // deref
        options_.gen_structs ? 0.5 : 0.0,             // struct field read
        0.2,  // sizeof
        0.3,  // enum constant
        0.3,  // char var
    };
    switch (rng_.NextWeighted(weights)) {
      case 0:
        return std::to_string(rng_.NextInRange(0, 99));
      case 1: {
        const Var* v = PickVar(Kind::kInt, false);
        return v != nullptr ? v->name : std::to_string(rng_.NextInRange(0, 99));
      }
      case 2: {
        static const char* kOps[] = {"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"};
        size_t op = rng_.NextBelow(10);
        std::string rhs = op >= 8 ? "(" + IntExpr(depth + 1) + " | 1)" : IntExpr(depth + 1);
        return "(" + IntExpr(depth + 1) + " " + kOps[op] + " " + rhs + ")";
      }
      case 3: {
        static const char* kOps[] = {"-", "~", "!"};
        return "(" + std::string(kOps[rng_.NextBelow(3)]) + IntExpr(depth + 1) + ")";
      }
      case 4: {
        const FuncPlan* fn = PickCallee(/*want_int=*/true);
        if (fn == nullptr) {
          return std::to_string(rng_.NextInRange(0, 99));
        }
        return CallExprFor(*fn);
      }
      case 5:
        return "(" + CondExpr() + " ? " + IntExpr(depth + 1) + " : " + IntExpr(depth + 1) + ")";
      case 6: {
        const Var* p = PickVar(Kind::kPtrInt, false);
        if (p == nullptr) {
          return std::to_string(rng_.NextInRange(0, 99));
        }
        return "(*" + p->name + ")";
      }
      case 7: {
        const Var* sv = PickVar(Kind::kStructVal, false);
        if (sv == nullptr) {
          return std::to_string(rng_.NextInRange(0, 99));
        }
        const StructPlan& plan = structs_[static_cast<size_t>(sv->struct_index)];
        return sv->name + "." + plan.fields[rng_.NextBelow(plan.fields.size())];
      }
      case 8:
        return "(int)sizeof(int)";
      case 9: {
        const EnumPlan* en = FileEnum(current_file_);
        if (en == nullptr) {
          return std::to_string(rng_.NextInRange(0, 99));
        }
        return en->constants[rng_.NextBelow(en->constants.size())].first;
      }
      case 10: {
        const Var* c = PickVar(Kind::kChar, false);
        return c != nullptr ? c->name : std::to_string(rng_.NextInRange(0, 99));
      }
      default:
        return "0";
    }
  }

  std::string CondExpr() {
    const Var* a = PickVar(Kind::kInt, false);
    const Var* b = PickVar(Kind::kBool, false);
    double pick = rng_.NextDouble();
    if (pick < 0.25 && b != nullptr) {
      return "(" + b->name + ")";
    }
    std::string lhs = a != nullptr ? a->name : IntExpr(2);
    static const char* kOps[] = {"<", ">", "<=", ">=", "==", "!="};
    std::string cond = "(" + lhs + " " + kOps[rng_.NextBelow(6)] + " " + IntExpr(2) + ")";
    if (pick > 0.85) {
      cond = "(" + cond + " && (" + lhs + " != " + std::to_string(rng_.NextInRange(0, 9)) +
             "))";
    }
    return cond;
  }

  std::string CallExprFor(const FuncPlan& fn) {
    std::string call = fn.name + "(";
    for (size_t p = 0; p < fn.param_kinds.size(); ++p) {
      if (p > 0) {
        call += ", ";
      }
      switch (fn.param_kinds[p]) {
        case Kind::kInt:
          call += IntExpr(2);
          break;
        case Kind::kPtrInt: {
          const Var* ptr = PickVar(Kind::kPtrInt, false);
          if (ptr != nullptr && rng_.NextBool(0.5)) {
            call += ptr->name;
          } else {
            const Var* iv = PickVar(Kind::kInt, false);
            call += iv != nullptr ? "&" + iv->name : std::string("NULL");
          }
          break;
        }
        case Kind::kChar: {
          const Var* c = PickVar(Kind::kChar, false);
          if (c != nullptr) {
            call += c->name;
          } else {
            call += "'";
            call += static_cast<char>('a' + rng_.NextBelow(26));
            call += "'";
          }
          break;
        }
        case Kind::kBool:
          call += rng_.NextBool(0.5) ? "true" : "false";
          break;
        case Kind::kStructVal: {
          const Var* sv = PickVar(Kind::kStructVal, false);
          call += sv != nullptr && sv->struct_index == fn.param_structs[p] ? "&" + sv->name
                                                                           : std::string("NULL");
          break;
        }
      }
    }
    call += ")";
    return call;
  }

  // --- Symbol helpers ------------------------------------------------------

  Var NewVar(Kind kind) {
    Var v;
    v.name = MintName("v");
    v.kind = kind;
    return v;
  }

  const Var* PickVar(Kind kind, bool assignable) {
    (void)assignable;  // every tracked var is assignable in Mini-C
    std::vector<const Var*> matches;
    for (const Var& v : scope_) {
      if (v.kind == kind) {
        matches.push_back(&v);
      }
    }
    if (matches.empty()) {
      return nullptr;
    }
    return matches[rng_.NextBelow(matches.size())];
  }

  const FuncPlan* PickCallee(bool want_int) {
    std::vector<const FuncPlan*> matches;
    for (const FuncPlan& fn : funcs_) {
      if (fn.is_static && fn.file != current_file_) {
        continue;  // statics are file-local
      }
      if (want_int && (fn.returns_void || fn.return_kind != Kind::kInt)) {
        continue;
      }
      matches.push_back(&fn);
    }
    if (matches.empty()) {
      return nullptr;
    }
    return matches[rng_.NextBelow(matches.size())];
  }

  const std::string* FileTypedef(int file) const {
    for (const auto& [name, tf] : typedefs_) {
      if (tf == file) {
        return &name;
      }
    }
    return nullptr;
  }

  const EnumPlan* FileEnum(int file) const {
    for (const EnumPlan& en : enums_) {
      if (en.file == file) {
        return &en;
      }
    }
    return nullptr;
  }

  static std::string TypeName(Kind kind, int struct_index) {
    (void)struct_index;
    switch (kind) {
      case Kind::kInt:
        return "int";
      case Kind::kPtrInt:
        return "int*";
      case Kind::kChar:
        return "char";
      case Kind::kBool:
        return "bool";
      case Kind::kStructVal:
        return "int";  // unreachable; struct params are rendered inline
    }
    return "int";
  }

  void Line(std::string text) { lines_->push_back(std::move(text)); }

  // All identifiers come from one counter, so every minted name is unique
  // program-wide; the optional prefix makes them unique corpus-wide.
  std::string MintName(const char* base) {
    return options_.ident_prefix + base + std::to_string(name_counter_++);
  }

  Rng rng_;
  GenOptions options_;
  int num_files_ = 1;
  int name_counter_ = 0;
  int current_file_ = 0;

  std::vector<StructPlan> structs_;
  std::vector<EnumPlan> enums_;
  std::vector<std::pair<std::string, int>> typedefs_;
  std::vector<std::pair<std::string, int>> globals_;
  std::vector<FuncPlan> funcs_;

  std::vector<Var> scope_;
  std::vector<std::string> struct_ptr_params_;
  std::vector<std::string>* lines_ = nullptr;
};

}  // namespace

TestProgram GenerateProgram(uint64_t seed, const GenOptions& options) {
  Generator generator(seed, options);
  return generator.Run(seed);
}

}  // namespace testing
}  // namespace vc
