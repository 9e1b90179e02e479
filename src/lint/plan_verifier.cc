#include "lint/plan_verifier.h"

#include <map>
#include <string>
#include <string_view>

#include "common/strings.h"
#include "exec/sinks.h"

namespace bornsql::lint {
namespace {

using exec::BoundExpr;
using exec::BoundKind;
using exec::ExprBinding;
using exec::Operator;

// Operator family, derived from the DebugString prefix (the part before
// '('). Planner-internal operators (Relabel, CteScan) are anonymous-
// namespace classes, so name-based classification is the only handle the
// verifier has on them; the exec operators keep the same convention for
// uniformity.
std::string_view OpName(const std::string& debug) {
  const size_t paren = debug.find('(');
  return std::string_view(debug).substr(
      0, paren == std::string::npos ? debug.size() : paren);
}

bool IsPassThrough(std::string_view name) {
  return name == "Filter" || name == "Sort" || name == "Limit" ||
         name == "Distinct" || name == "Relabel" || name == "CteScan";
}

bool IsTwoSidedJoin(std::string_view name) {
  return name == "HashJoin" || name == "SortMergeJoin" ||
         name == "NestedLoopJoin";
}

// Best-effort static type of `e` evaluated against `input`. kNull means
// "unknown / dynamic" and acts as a wildcard: the verifier only flags
// pairings where both sides have a concrete, irreconcilable type.
ValueType InferType(const BoundExpr& e, const Schema& input) {
  switch (e.kind) {
    case BoundKind::kLiteral:
      return e.literal.type();
    case BoundKind::kColumn:
      if (e.column_index >= input.size()) return ValueType::kNull;
      return input.column(e.column_index).type;
    case BoundKind::kUnary:
      if (e.unary_op == exec::BoundUnaryOp::kNot) return ValueType::kInt;
      return e.children.empty() ? ValueType::kNull
                                : InferType(*e.children[0], input);
    case BoundKind::kBinary:
      switch (e.binary_op) {
        case exec::BoundBinaryOp::kConcat:
          return ValueType::kText;
        case exec::BoundBinaryOp::kEq:
        case exec::BoundBinaryOp::kNotEq:
        case exec::BoundBinaryOp::kLt:
        case exec::BoundBinaryOp::kLtEq:
        case exec::BoundBinaryOp::kGt:
        case exec::BoundBinaryOp::kGtEq:
        case exec::BoundBinaryOp::kAnd:
        case exec::BoundBinaryOp::kOr:
        case exec::BoundBinaryOp::kLike:
          return ValueType::kInt;  // boolean-valued
        default: {
          // Arithmetic: double if either side is, int if both are, else
          // unknown.
          if (e.children.size() != 2) return ValueType::kNull;
          const ValueType l = InferType(*e.children[0], input);
          const ValueType r = InferType(*e.children[1], input);
          if (l == ValueType::kDouble || r == ValueType::kDouble) {
            return ValueType::kDouble;
          }
          if (l == ValueType::kInt && r == ValueType::kInt) {
            return ValueType::kInt;
          }
          return ValueType::kNull;
        }
      }
    case BoundKind::kCall:
      switch (e.func) {
        case exec::ScalarFunc::kLower:
        case exec::ScalarFunc::kUpper:
        case exec::ScalarFunc::kSubstr:
        case exec::ScalarFunc::kTrim:
        case exec::ScalarFunc::kReplace:
          return ValueType::kText;
        case exec::ScalarFunc::kLength:
        case exec::ScalarFunc::kInstr:
        case exec::ScalarFunc::kSign:
          return ValueType::kInt;
        case exec::ScalarFunc::kPow:
        case exec::ScalarFunc::kLn:
        case exec::ScalarFunc::kLog10:
        case exec::ScalarFunc::kExp:
        case exec::ScalarFunc::kSqrt:
          return ValueType::kDouble;
        default:
          return ValueType::kNull;  // abs/round/coalesce/cast/...: dynamic
      }
    case BoundKind::kIsNull:
    case BoundKind::kInList:
    case BoundKind::kInSet:
      return ValueType::kInt;  // boolean-valued
    case BoundKind::kCase:
      return ValueType::kNull;
  }
  return ValueType::kNull;
}

bool IsTextType(ValueType t) { return t == ValueType::kText; }
bool IsNumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

class Verifier {
 public:
  void Visit(const Operator& op) {
    const std::string debug = op.DebugString();
    const std::string_view name = OpName(debug);
    const std::vector<Operator*> children = op.children();

    CheckBindings(op, debug);
    CheckWidths(op, debug, name, children);

    for (const Operator* child : children) Visit(*child);
  }

  std::vector<Diagnostic> TakeDiagnostics() { return std::move(diags_); }
  size_t checks_run() const { return checks_run_; }

 private:
  void Report(const char* code, std::string message) {
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kError;
    d.message = std::move(message);
    diags_.push_back(std::move(d));
  }

  // BSV001 (dangling column index) and BSV006 (join key type pairing).
  void CheckBindings(const Operator& op, const std::string& debug) {
    std::vector<ExprBinding> bindings;
    op.CollectBindings(&bindings);

    std::map<int, std::vector<const ExprBinding*>> pairs;
    for (const ExprBinding& b : bindings) {
      if (b.expr == nullptr || b.input == nullptr) continue;
      CheckColumnIndices(*b.expr, *b.input, debug, b.role);
      if (b.pair_group >= 0) pairs[b.pair_group].push_back(&b);
    }

    for (const auto& [group, sides] : pairs) {
      if (sides.size() != 2) continue;  // a lone side has nothing to agree with
      ++checks_run_;
      const ValueType lt = InferType(*sides[0]->expr, *sides[0]->input);
      const ValueType rt = InferType(*sides[1]->expr, *sides[1]->input);
      if ((IsTextType(lt) && IsNumericType(rt)) ||
          (IsNumericType(lt) && IsTextType(rt))) {
        Report("BSV006",
               StrFormat("%s: join key %d pairs %s with %s; these never "
                         "compare equal",
                         debug.c_str(), group, ValueTypeName(lt),
                         ValueTypeName(rt)));
      }
    }
  }

  void CheckColumnIndices(const BoundExpr& e, const Schema& input,
                          const std::string& debug, const char* role) {
    if (e.kind == BoundKind::kColumn) {
      ++checks_run_;
      if (e.column_index >= input.size()) {
        Report("BSV001",
               StrFormat("%s: %s references column index %zu but the input "
                         "row has %zu columns",
                         debug.c_str(), role, e.column_index, input.size()));
      }
    }
    for (const exec::BoundExprPtr& child : e.children) {
      CheckColumnIndices(*child, input, debug, role);
    }
  }

  // BSV002..BSV005: schema-width consistency between an operator and its
  // inputs.
  void CheckWidths(const Operator& op, const std::string& debug,
                   std::string_view name,
                   const std::vector<Operator*>& children) {
    const size_t width = op.schema().size();

    if (IsPassThrough(name) && children.size() == 1) {
      ++checks_run_;
      const size_t child_width = children[0]->schema().size();
      if (width != child_width) {
        Report("BSV002",
               StrFormat("%s: pass-through operator emits %zu columns but "
                         "its child emits %zu",
                         debug.c_str(), width, child_width));
      }
    }

    if (IsTwoSidedJoin(name) && children.size() == 2) {
      ++checks_run_;
      const size_t expect =
          children[0]->schema().size() + children[1]->schema().size();
      if (width != expect) {
        Report("BSV003",
               StrFormat("%s: join emits %zu columns but its inputs "
                         "concatenate to %zu",
                         debug.c_str(), width, expect));
      }
    }

    if (name == "UnionAll") {
      for (size_t i = 0; i < children.size(); ++i) {
        ++checks_run_;
        const size_t child_width = children[i]->schema().size();
        if (child_width != width) {
          Report("BSV004",
                 StrFormat("%s: input %zu emits %zu columns but the union "
                           "emits %zu",
                           debug.c_str(), i, child_width, width));
        }
      }
    }

    if (const auto* project = dynamic_cast<const exec::ProjectOp*>(&op)) {
      ++checks_run_;
      std::vector<ExprBinding> bindings;
      project->CollectBindings(&bindings);
      if (bindings.size() != width) {
        Report("BSV005",
               StrFormat("%s: projection evaluates %zu expressions but its "
                         "schema declares %zu columns",
                         debug.c_str(), bindings.size(), width));
      }
    }
    if (const auto* agg = dynamic_cast<const exec::HashAggOp*>(&op)) {
      ++checks_run_;
      const size_t expect = agg->group_key_count() + agg->aggregate_count();
      if (expect != width) {
        Report("BSV005",
               StrFormat("%s: aggregate produces %zu columns but its schema "
                         "declares %zu",
                         debug.c_str(), expect, width));
      }
    }
    if (const auto* sink = dynamic_cast<const exec::WriteOp*>(&op)) {
      if (!children.empty()) {
        ++checks_run_;
        const size_t child_width = children[0]->schema().size();
        if (child_width != sink->input_width()) {
          Report("BSV005",
                 StrFormat("%s: write sink takes %zu input columns but its "
                           "input emits %zu",
                           debug.c_str(), sink->input_width(), child_width));
        }
      }
    }
    if (const auto* win = dynamic_cast<const exec::WindowOp*>(&op)) {
      if (!children.empty()) {
        ++checks_run_;
        const size_t expect =
            children[0]->schema().size() + win->window_func_count();
        if (expect != width) {
          Report("BSV005",
                 StrFormat("%s: window produces %zu columns but its schema "
                           "declares %zu",
                           debug.c_str(), expect, width));
        }
      }
    }
  }

  std::vector<Diagnostic> diags_;
  size_t checks_run_ = 0;
};

}  // namespace

std::vector<Diagnostic> VerifyPlan(const exec::Operator& root,
                                   size_t* checks_run) {
  Verifier v;
  v.Visit(root);
  if (checks_run != nullptr) *checks_run = v.checks_run();
  std::vector<Diagnostic> diags = v.TakeDiagnostics();
  SortAndDedupe(&diags);
  return diags;
}

Status VerifyPlanStatus(const exec::Operator& root) {
  const std::vector<Diagnostic> diags = VerifyPlan(root);
  if (diags.empty()) return Status::OK();
  std::vector<std::string> lines;
  lines.reserve(diags.size());
  for (const Diagnostic& d : diags) lines.push_back(FormatDiagnostic(d));
  return Status::Internal("plan failed invariant verification: " +
                          Join(lines, "; "));
}

}  // namespace bornsql::lint
