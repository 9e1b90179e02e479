#include "exec/evaluator.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace bornsql::exec {
namespace {

struct FuncSpec {
  const char* name;
  ScalarFunc func;
  int min_arity;
  int max_arity;  // -1 = unbounded
};

constexpr FuncSpec kFuncs[] = {
    {"pow", ScalarFunc::kPow, 2, 2},
    {"power", ScalarFunc::kPow, 2, 2},
    {"ln", ScalarFunc::kLn, 1, 1},
    {"log", ScalarFunc::kLog10, 1, 1},
    {"log10", ScalarFunc::kLog10, 1, 1},
    {"exp", ScalarFunc::kExp, 1, 1},
    {"sqrt", ScalarFunc::kSqrt, 1, 1},
    {"abs", ScalarFunc::kAbs, 1, 1},
    {"round", ScalarFunc::kRound, 1, 2},
    {"floor", ScalarFunc::kFloor, 1, 1},
    {"ceil", ScalarFunc::kCeil, 1, 1},
    {"ceiling", ScalarFunc::kCeil, 1, 1},
    {"lower", ScalarFunc::kLower, 1, 1},
    {"upper", ScalarFunc::kUpper, 1, 1},
    {"length", ScalarFunc::kLength, 1, 1},
    {"substr", ScalarFunc::kSubstr, 2, 3},
    {"coalesce", ScalarFunc::kCoalesce, 1, -1},
    {"nullif", ScalarFunc::kNullIf, 2, 2},
    {"cast", ScalarFunc::kCast, 2, 2},
    {"mod", ScalarFunc::kMod, 2, 2},
    {"sign", ScalarFunc::kSign, 1, 1},
    {"trim", ScalarFunc::kTrim, 1, 1},
    {"replace", ScalarFunc::kReplace, 3, 3},
    {"instr", ScalarFunc::kInstr, 2, 2},
};

// The name a function's type error reports: its first spelling.
const char* FuncName(ScalarFunc func) {
  for (const FuncSpec& spec : kFuncs) {
    if (spec.func == func) return spec.name;
  }
  return "function";
}

Status TypeError(const char* op, const Value& v) {
  return Status::ExecutionError(StrFormat(
      "cannot apply %s to %s value '%s'", op, ValueTypeName(v.type()),
      v.ToString().c_str()));
}

// Wraps a double result: non-finite values become NULL (SQLite semantics for
// e.g. ln(0), 1.0/0.0).
Value DoubleOrNull(double d) {
  if (!std::isfinite(d)) return Value::Null();
  return Value::Double(d);
}

Result<Value> EvalUnary(BoundUnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  switch (op) {
    case BoundUnaryOp::kNegate:
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return TypeError("unary minus", v);
    case BoundUnaryOp::kPlus:
      if (v.is_numeric()) return v;
      return TypeError("unary plus", v);
    case BoundUnaryOp::kNot:
      return Value::Bool(!v.Truthy());
  }
  return Status::Internal("bad unary op");
}

Result<Value> EvalArith(BoundBinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError("arithmetic", a.is_numeric() ? b : a);
  }
  const bool both_int = a.is_int() && b.is_int();
  switch (op) {
    case BoundBinaryOp::kAdd:
      if (both_int) return Value::Int(a.AsInt() + b.AsInt());
      return Value::Double(a.AsDouble() + b.AsDouble());
    case BoundBinaryOp::kSub:
      if (both_int) return Value::Int(a.AsInt() - b.AsInt());
      return Value::Double(a.AsDouble() - b.AsDouble());
    case BoundBinaryOp::kMul:
      if (both_int) return Value::Int(a.AsInt() * b.AsInt());
      return Value::Double(a.AsDouble() * b.AsDouble());
    case BoundBinaryOp::kDiv:
      if (both_int) {
        // Integer division truncates toward zero (all three reference DBMSs
        // agree); x / 0 yields NULL (SQLite/MySQL portable behaviour).
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(a.AsInt() / b.AsInt());
      }
      if (b.AsDouble() == 0.0) return Value::Null();
      return DoubleOrNull(a.AsDouble() / b.AsDouble());
    case BoundBinaryOp::kMod:
      if (both_int) {
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(a.AsInt() % b.AsInt());
      }
      if (b.AsDouble() == 0.0) return Value::Null();
      return DoubleOrNull(std::fmod(a.AsDouble(), b.AsDouble()));
    default:
      return Status::Internal("bad arith op");
  }
}

Result<Value> EvalComparison(BoundBinaryOp op, const Value& a,
                             const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int c = Value::Compare(a, b);
  switch (op) {
    case BoundBinaryOp::kEq:
      return Value::Bool(c == 0);
    case BoundBinaryOp::kNotEq:
      return Value::Bool(c != 0);
    case BoundBinaryOp::kLt:
      return Value::Bool(c < 0);
    case BoundBinaryOp::kLtEq:
      return Value::Bool(c <= 0);
    case BoundBinaryOp::kGt:
      return Value::Bool(c > 0);
    case BoundBinaryOp::kGtEq:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("bad comparison op");
  }
}

// Applies a non-COALESCE scalar function to already-evaluated arguments.
Result<Value> ApplyCall(const BoundExpr& e, const std::vector<Value>& args) {
  auto null_in = [&](size_t upto) {
    for (size_t i = 0; i < upto && i < args.size(); ++i) {
      if (args[i].is_null()) return true;
    }
    return false;
  };
  switch (e.func) {
    case ScalarFunc::kLn:
    case ScalarFunc::kLog10:
    case ScalarFunc::kExp:
    case ScalarFunc::kSqrt:
    case ScalarFunc::kAbs:
    case ScalarFunc::kFloor:
    case ScalarFunc::kCeil:
    case ScalarFunc::kSign: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError(FuncName(e.func), args[0]);
      const double x = args[0].AsDouble();
      switch (e.func) {
        case ScalarFunc::kLn:
          return x <= 0.0 ? Value::Null() : Value::Double(std::log(x));
        case ScalarFunc::kLog10:
          return x <= 0.0 ? Value::Null() : Value::Double(std::log10(x));
        case ScalarFunc::kExp:
          return DoubleOrNull(std::exp(x));
        case ScalarFunc::kSqrt:
          return x < 0.0 ? Value::Null() : Value::Double(std::sqrt(x));
        case ScalarFunc::kAbs:
          return args[0].is_int() ? Value::Int(std::llabs(args[0].AsInt()))
                                  : Value::Double(std::fabs(x));
        case ScalarFunc::kFloor:
          return Value::Int(static_cast<int64_t>(std::floor(x)));
        case ScalarFunc::kCeil:
          return Value::Int(static_cast<int64_t>(std::ceil(x)));
        default:  // kSign
          return Value::Int(x > 0 ? 1 : (x < 0 ? -1 : 0));
      }
    }
    case ScalarFunc::kLower:
    case ScalarFunc::kUpper:
    case ScalarFunc::kLength:
    case ScalarFunc::kTrim: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_text()) return TypeError(FuncName(e.func), args[0]);
      const std::string& text = args[0].AsText();
      if (e.func == ScalarFunc::kLength) {
        return Value::Int(static_cast<int64_t>(text.size()));
      }
      if (e.func == ScalarFunc::kTrim) {
        return Value::Text(std::string(StripWhitespace(text)));
      }
      if (e.func == ScalarFunc::kLower) return Value::Text(AsciiToLower(text));
      std::string upper = text;
      for (char& c : upper) {
        if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      }
      return Value::Text(std::move(upper));
    }
    case ScalarFunc::kPow: {
      if (null_in(2)) return Value::Null();
      if (!args[0].is_numeric() || !args[1].is_numeric()) {
        return TypeError("pow", args[0].is_numeric() ? args[1] : args[0]);
      }
      return DoubleOrNull(std::pow(args[0].AsDouble(), args[1].AsDouble()));
    }
    case ScalarFunc::kRound: {
      if (null_in(args.size())) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("round", args[0]);
      double digits = args.size() > 1 ? args[1].AsDouble() : 0.0;
      double scale = std::pow(10.0, digits);
      return DoubleOrNull(std::round(args[0].AsDouble() * scale) / scale);
    }
    case ScalarFunc::kSubstr: {
      if (null_in(args.size())) return Value::Null();
      if (!args[0].is_text() || !args[1].is_numeric()) {
        return TypeError("substr", args[0].is_text() ? args[1] : args[0]);
      }
      const std::string& s = args[0].AsText();
      // 1-based start per SQL convention.
      int64_t start = static_cast<int64_t>(args[1].AsDouble());
      int64_t len = args.size() > 2 ? static_cast<int64_t>(args[2].AsDouble())
                                    : static_cast<int64_t>(s.size());
      if (start < 1) start = 1;
      if (len < 0) len = 0;
      size_t begin = static_cast<size_t>(start - 1);
      if (begin >= s.size()) return Value::Text("");
      return Value::Text(s.substr(begin, static_cast<size_t>(len)));
    }
    case ScalarFunc::kCoalesce:
      return Status::Internal("coalesce handled above");
    case ScalarFunc::kNullIf: {
      if (args[0].is_null()) return Value::Null();
      if (!args[1].is_null() && Value::Compare(args[0], args[1]) == 0) {
        return Value::Null();
      }
      return args[0];
    }
    case ScalarFunc::kCast: {
      if (!args[1].is_text()) {
        return Status::ExecutionError("CAST target must be a type name");
      }
      if (args[0].is_null()) return Value::Null();
      const std::string& ty = args[1].AsText();
      ValueType target;
      if (EqualsIgnoreCase(ty, "integer") || EqualsIgnoreCase(ty, "int") ||
          EqualsIgnoreCase(ty, "bigint")) {
        target = ValueType::kInt;
      } else if (EqualsIgnoreCase(ty, "real") ||
                 EqualsIgnoreCase(ty, "double") ||
                 EqualsIgnoreCase(ty, "float") ||
                 EqualsIgnoreCase(ty, "numeric")) {
        target = ValueType::kDouble;
      } else if (EqualsIgnoreCase(ty, "text") ||
                 EqualsIgnoreCase(ty, "varchar") ||
                 EqualsIgnoreCase(ty, "char")) {
        target = ValueType::kText;
      } else {
        return Status::ExecutionError("unknown CAST target '" + ty + "'");
      }
      return args[0].CoerceTo(target);
    }
    case ScalarFunc::kMod:
      return EvalArith(BoundBinaryOp::kMod, args[0], args[1]);
    case ScalarFunc::kReplace: {
      if (null_in(3)) return Value::Null();
      if (!args[0].is_text() || !args[1].is_text() || !args[2].is_text()) {
        return TypeError("replace", args[0]);
      }
      const std::string& s = args[0].AsText();
      const std::string& from = args[1].AsText();
      const std::string& to = args[2].AsText();
      if (from.empty()) return args[0];
      std::string out;
      size_t pos = 0;
      while (true) {
        size_t hit = s.find(from, pos);
        if (hit == std::string::npos) {
          out.append(s, pos, std::string::npos);
          break;
        }
        out.append(s, pos, hit - pos);
        out.append(to);
        pos = hit + from.size();
      }
      return Value::Text(std::move(out));
    }
    case ScalarFunc::kInstr: {
      // 1-based position of the first occurrence, 0 when absent (SQLite).
      if (null_in(2)) return Value::Null();
      if (!args[0].is_text() || !args[1].is_text()) {
        return TypeError("instr", args[0].is_text() ? args[1] : args[0]);
      }
      size_t hit = args[0].AsText().find(args[1].AsText());
      return Value::Int(hit == std::string::npos
                            ? 0
                            : static_cast<int64_t>(hit) + 1);
    }
  }
  return Status::Internal("bad scalar function");
}

// Non-logical binary operators over already-evaluated operands; AND/OR
// stay with the caller, which evaluates them lazily.
Result<Value> EvalBinaryKernel(BoundBinaryOp op, const Value& a,
                               const Value& b) {
  switch (op) {
    case BoundBinaryOp::kAdd:
    case BoundBinaryOp::kSub:
    case BoundBinaryOp::kMul:
    case BoundBinaryOp::kDiv:
    case BoundBinaryOp::kMod:
      return EvalArith(op, a, b);
    case BoundBinaryOp::kEq:
    case BoundBinaryOp::kNotEq:
    case BoundBinaryOp::kLt:
    case BoundBinaryOp::kLtEq:
    case BoundBinaryOp::kGt:
    case BoundBinaryOp::kGtEq:
      return EvalComparison(op, a, b);
    case BoundBinaryOp::kConcat: {
      if (a.is_null() || b.is_null()) return Value::Null();
      BORNSQL_ASSIGN_OR_RETURN(Value ta, a.CoerceTo(ValueType::kText));
      BORNSQL_ASSIGN_OR_RETURN(Value tb, b.CoerceTo(ValueType::kText));
      return Value::Text(ta.AsText() + tb.AsText());
    }
    case BoundBinaryOp::kLike: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_text() || !b.is_text()) {
        return TypeError("LIKE", a.is_text() ? b : a);
      }
      return Value::Bool(LikeMatch(a.AsText(), b.AsText()));
    }
    default:
      return Status::Internal("bad binary op");
  }
}

// Three-valued AND/OR over already-evaluated operands.
Value And3(const Value& a, const Value& b) {
  if (!a.is_null() && !a.Truthy()) return Value::Bool(false);
  if (!b.is_null() && !b.Truthy()) return Value::Bool(false);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(true);
}

Value Or3(const Value& a, const Value& b) {
  if (!a.is_null() && a.Truthy()) return Value::Bool(true);
  if (!b.is_null() && b.Truthy()) return Value::Bool(true);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(false);
}

}  // namespace

Result<ScalarFunc> LookupScalarFunc(const std::string& name, size_t arity) {
  for (const FuncSpec& spec : kFuncs) {
    if (!EqualsIgnoreCase(spec.name, name)) continue;
    if (arity < static_cast<size_t>(spec.min_arity) ||
        (spec.max_arity >= 0 && arity > static_cast<size_t>(spec.max_arity))) {
      return Status::BindError(StrFormat("function %s() called with %zu args",
                                         spec.name, arity));
    }
    return spec.func;
  }
  return Status::NotFound("no scalar function named '" + name + "'");
}

BoundExprPtr BoundLiteral(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

BoundExprPtr BoundColumn(size_t index) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kColumn;
  e->column_index = index;
  return e;
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool IsConstExpr(const BoundExpr& e) {
  if (e.kind == BoundKind::kColumn || e.kind == BoundKind::kParameter) {
    return false;
  }
  for (const auto& c : e.children) {
    if (!IsConstExpr(*c)) return false;
  }
  return true;
}

namespace {

// Evaluates `e` for the rows of `chunk` that `sel` lists (every row when
// `sel` is null), one value per listed row, in order. Only column
// references read through `sel`; every other node works on the compact
// vectors its children return.
Status EvalRows(const BoundExpr& e, const DataChunk& chunk,
                const SelectionVector* sel, std::vector<Value>* out);

// The lazy step of AND/OR/CASE/COALESCE/IN: evaluates `e` only for the
// rows at positions *rest (ascending indexes into the `n` rows `sel`
// lists) and passes each row's position and value to `decide`; the rows it
// does not decide stay in *rest. While every row is still undecided the
// evaluation stays a dense one over `sel`.
template <typename Decide>
Status Narrow(const BoundExpr& e, const DataChunk& chunk,
              const SelectionVector* sel, size_t n,
              std::vector<uint32_t>* rest, Decide decide) {
  if (rest->empty()) return Status::OK();
  const bool dense = rest->size() == n;
  SelectionVector sub;
  for (size_t j = 0; !dense && j < rest->size(); ++j) {
    sub.push_back(sel != nullptr ? (*sel)[(*rest)[j]] : (*rest)[j]);
  }
  std::vector<Value> v;
  BORNSQL_RETURN_IF_ERROR(EvalRows(e, chunk, dense ? sel : &sub, &v));
  size_t kept = 0;
  for (size_t j = 0; j < rest->size(); ++j) {
    if (!decide((*rest)[j], std::move(v[j]))) (*rest)[kept++] = (*rest)[j];
  }
  rest->resize(kept);
  return Status::OK();
}

// Evaluates the one child of `e` and maps each of its values through `f`.
template <typename F>
Status MapChild(const BoundExpr& e, const DataChunk& chunk,
                const SelectionVector* sel, std::vector<Value>* out, F f) {
  std::vector<Value> v;
  BORNSQL_RETURN_IF_ERROR(EvalRows(*e.children[0], chunk, sel, &v));
  out->reserve(v.size());
  for (const Value& x : v) {
    BORNSQL_ASSIGN_OR_RETURN(Value r, f(x));
    out->push_back(std::move(r));
  }
  return Status::OK();
}

Status EvalRows(const BoundExpr& e, const DataChunk& chunk,
                const SelectionVector* sel, std::vector<Value>* out) {
  const size_t n = sel != nullptr ? sel->size() : chunk.size();
  out->clear();
  std::vector<uint32_t> rest;  // the undecided rows of a lazy node
  switch (e.kind) {
    case BoundKind::kLiteral:
      out->assign(n, e.literal);
      return Status::OK();
    case BoundKind::kParameter:
      return Status::Internal(StrFormat(
          "parameter $%zu evaluated without an argument", e.column_index));
    case BoundKind::kColumn: {
      if (e.column_index >= chunk.column_count()) {
        return Status::Internal(
            StrFormat("column index %zu out of range (chunk has %zu columns)",
                      e.column_index, chunk.column_count()));
      }
      const std::vector<Value>& col = chunk.column(e.column_index);
      if (sel == nullptr) {
        *out = col;
        return Status::OK();
      }
      out->reserve(n);
      for (uint32_t i : *sel) out->push_back(col[i]);
      return Status::OK();
    }
    case BoundKind::kUnary:
      return MapChild(e, chunk, sel, out, [&](const Value& v) {
        return EvalUnary(e.unary_op, v);
      });
    case BoundKind::kBinary: {
      std::vector<Value> a;
      BORNSQL_RETURN_IF_ERROR(EvalRows(*e.children[0], chunk, sel, &a));
      if (e.binary_op == BoundBinaryOp::kAnd ||
          e.binary_op == BoundBinaryOp::kOr) {
        // A FALSE left side decides AND, a TRUE one OR; the right side
        // runs for the other rows only.
        const bool is_and = e.binary_op == BoundBinaryOp::kAnd;
        *out = std::move(a);
        for (uint32_t k = 0; k < n; ++k) {
          Value& v = (*out)[k];
          if (v.is_null() || v.Truthy() == is_and) {
            rest.push_back(k);
          } else {
            v = Value::Bool(!is_and);
          }
        }
        return Narrow(*e.children[1], chunk, sel, n, &rest,
                      [&](uint32_t k, Value b) {
                        Value& v = (*out)[k];
                        v = is_and ? And3(v, b) : Or3(v, b);
                        return true;
                      });
      }
      std::vector<Value> b;
      BORNSQL_RETURN_IF_ERROR(EvalRows(*e.children[1], chunk, sel, &b));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        BORNSQL_ASSIGN_OR_RETURN(Value r,
                                 EvalBinaryKernel(e.binary_op, a[i], b[i]));
        out->push_back(std::move(r));
      }
      return Status::OK();
    }
    case BoundKind::kCall: {
      if (e.func == ScalarFunc::kCoalesce) {
        // Each argument runs for the rows every earlier one left NULL.
        out->assign(n, Value::Null());
        rest.resize(n);
        std::iota(rest.begin(), rest.end(), 0u);
        for (const BoundExprPtr& arg : e.children) {
          BORNSQL_RETURN_IF_ERROR(Narrow(
              *arg, chunk, sel, n, &rest, [&](uint32_t k, Value v) {
                if (v.is_null()) return false;
                (*out)[k] = std::move(v);
                return true;
              }));
        }
        return Status::OK();
      }
      const size_t k = e.children.size();
      std::vector<std::vector<Value>> argcols(k);
      for (size_t j = 0; j < k; ++j) {
        BORNSQL_RETURN_IF_ERROR(
            EvalRows(*e.children[j], chunk, sel, &argcols[j]));
      }
      out->reserve(n);
      std::vector<Value> args(k);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < k; ++j) args[j] = argcols[j][i];
        BORNSQL_ASSIGN_OR_RETURN(Value r, ApplyCall(e, args));
        out->push_back(std::move(r));
      }
      return Status::OK();
    }
    case BoundKind::kCase: {
      // Each WHEN runs for the rows no earlier WHEN took, each THEN for the
      // rows its WHEN took, and ELSE for the rows none took.
      const size_t n_pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
      out->assign(n, Value::Null());
      rest.resize(n);
      std::iota(rest.begin(), rest.end(), 0u);
      const auto take = [&](uint32_t k, Value v) {
        (*out)[k] = std::move(v);
        return true;
      };
      std::vector<uint32_t> taken;
      for (size_t p = 0; p < n_pairs; ++p) {
        BORNSQL_RETURN_IF_ERROR(Narrow(
            *e.children[2 * p], chunk, sel, n, &rest,
            [&](uint32_t k, const Value& c) {
              if (c.is_null() || !c.Truthy()) return false;
              taken.push_back(k);
              return true;
            }));
        BORNSQL_RETURN_IF_ERROR(
            Narrow(*e.children[2 * p + 1], chunk, sel, n, &taken, take));
      }
      if (!e.has_else) return Status::OK();
      return Narrow(*e.children.back(), chunk, sel, n, &rest, take);
    }
    case BoundKind::kIsNull:
      return MapChild(e, chunk, sel, out, [&](const Value& v) {
        return Result<Value>(Value::Bool(e.negated != v.is_null()));
      });
    case BoundKind::kInSet:
      return MapChild(e, chunk, sel, out, [&](const Value& v) {
        if (v.is_null()) return Result<Value>(Value::Null());
        if (e.in_set->values.count(v) > 0) {
          return Result<Value>(Value::Bool(!e.negated));
        }
        if (e.in_set->has_null) return Result<Value>(Value::Null());
        return Result<Value>(Value::Bool(e.negated));
      });
    case BoundKind::kInList: {
      // A NULL subject decides its row before any item runs; each item
      // runs for the rows no earlier item matched.
      std::vector<Value> subject;
      BORNSQL_RETURN_IF_ERROR(EvalRows(*e.children[0], chunk, sel, &subject));
      out->assign(n, Value::Bool(e.negated));
      for (uint32_t k = 0; k < n; ++k) {
        if (subject[k].is_null()) {
          (*out)[k] = Value::Null();
        } else {
          rest.push_back(k);
        }
      }
      for (size_t j = 1; j < e.children.size(); ++j) {
        BORNSQL_RETURN_IF_ERROR(Narrow(
            *e.children[j], chunk, sel, n, &rest, [&](uint32_t k, Value v) {
              if (v.is_null()) {
                (*out)[k] = Value::Null();  // unless a later item matches
                return false;
              }
              if (Value::Compare(subject[k], v) != 0) return false;
              (*out)[k] = Value::Bool(!e.negated);
              return true;
            }));
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad expression kind");
}

}  // namespace

Status EvalChunk(const BoundExpr& e, const DataChunk& chunk,
                 std::vector<Value>* out) {
  Status s = EvalRows(e, chunk, nullptr, out);
  if (s.ok() || chunk.size() <= 1) return s;
  // Column-at-a-time order can meet a later row's error before an earlier
  // row's. On this error path only, re-run the rows one at a time so the
  // first failing row reports, as row-at-a-time execution would.
  SelectionVector one(1);
  for (uint32_t i = 0; i < chunk.size(); ++i) {
    one[0] = i;
    BORNSQL_RETURN_IF_ERROR(EvalRows(e, chunk, &one, out));
  }
  return s;
}

Status EvalExprs(const std::vector<const BoundExpr*>& exprs,
                 const DataChunk& chunk,
                 std::vector<std::vector<Value>>* scratch, KeyColumnRefs* cols) {
  scratch->resize(exprs.size());
  cols->assign(exprs.size(), nullptr);
  Status s;
  for (size_t k = 0; k < exprs.size() && s.ok(); ++k) {
    const BoundExpr* e = exprs[k];
    if (e == nullptr) continue;
    if (e->kind == BoundKind::kColumn &&
        e->column_index < chunk.column_count()) {
      (*cols)[k] = &chunk.column(e->column_index);
      continue;
    }
    s = EvalRows(*e, chunk, nullptr, &(*scratch)[k]);
    (*cols)[k] = &(*scratch)[k];
  }
  if (s.ok() || chunk.size() <= 1) return s;
  // Expression at a time, a later expression's error on an earlier row can
  // come after an earlier expression's error on a later row.
  SelectionVector one(1);
  std::vector<Value> v;
  for (uint32_t i = 0; i < chunk.size(); ++i) {
    one[0] = i;
    for (const BoundExpr* e : exprs) {
      if (e != nullptr) BORNSQL_RETURN_IF_ERROR(EvalRows(*e, chunk, &one, &v));
    }
  }
  return s;
}

std::vector<const BoundExpr*> ExprList(const std::vector<BoundExprPtr>& exprs) {
  std::vector<const BoundExpr*> out;
  out.reserve(exprs.size());
  for (const BoundExprPtr& e : exprs) out.push_back(e.get());
  return out;
}

Result<const std::vector<Value>*> EvalChunkRef(const BoundExpr& e,
                                               const DataChunk& chunk,
                                               std::vector<Value>* scratch) {
  if (e.kind == BoundKind::kColumn) {
    if (e.column_index >= chunk.column_count()) {
      return Status::Internal(
          StrFormat("column index %zu out of range (chunk has %zu columns)",
                    e.column_index, chunk.column_count()));
    }
    return &chunk.column(e.column_index);
  }
  BORNSQL_RETURN_IF_ERROR(EvalChunk(e, chunk, scratch));
  return scratch;
}

}  // namespace bornsql::exec
