#include "plan/logical_plan.h"

#include "common/strings.h"

namespace bornsql::plan {

namespace {

const char* BinaryOpText(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kAdd: return "+";
    case sql::BinaryOp::kSub: return "-";
    case sql::BinaryOp::kMul: return "*";
    case sql::BinaryOp::kDiv: return "/";
    case sql::BinaryOp::kMod: return "%";
    case sql::BinaryOp::kEq: return "=";
    case sql::BinaryOp::kNotEq: return "<>";
    case sql::BinaryOp::kLt: return "<";
    case sql::BinaryOp::kLtEq: return "<=";
    case sql::BinaryOp::kGt: return ">";
    case sql::BinaryOp::kGtEq: return ">=";
    case sql::BinaryOp::kAnd: return "AND";
    case sql::BinaryOp::kOr: return "OR";
    case sql::BinaryOp::kConcat: return "||";
    case sql::BinaryOp::kLike: return "LIKE";
  }
  return "?";
}

std::string LiteralText(const Value& v) {
  if (v.is_text()) return "'" + v.ToString() + "'";
  return v.ToString();
}

// Wraps nested binary operands so the rendering is unambiguous without
// reproducing the parser's precedence table.
std::string OperandText(const sql::Expr& e) {
  std::string text = ExprToText(e);
  if (e.kind == sql::ExprKind::kBinary) return "(" + text + ")";
  return text;
}

}  // namespace

std::string ExprToText(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kLiteral:
      return LiteralText(e.literal);
    case sql::ExprKind::kColumnRef:
      return e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
    case sql::ExprKind::kUnary: {
      const std::string inner = OperandText(*e.left);
      switch (e.unary_op) {
        case sql::UnaryOp::kNegate: return "-" + inner;
        case sql::UnaryOp::kNot: return "NOT " + inner;
        case sql::UnaryOp::kPlus: return "+" + inner;
      }
      return inner;
    }
    case sql::ExprKind::kBinary:
      return OperandText(*e.left) + " " + BinaryOpText(e.binary_op) + " " +
             OperandText(*e.right);
    case sql::ExprKind::kFunctionCall: {
      std::vector<std::string> args;
      args.reserve(e.args.size());
      for (const sql::ExprPtr& a : e.args) args.push_back(ExprToText(*a));
      return e.func_name + "(" + Join(args, ", ") + ")";
    }
    case sql::ExprKind::kWindow: {
      std::string over;
      if (!e.partition_by.empty()) {
        std::vector<std::string> parts;
        for (const sql::ExprPtr& p : e.partition_by) {
          parts.push_back(ExprToText(*p));
        }
        over += "PARTITION BY " + Join(parts, ", ");
      }
      if (!e.window_order_by.empty()) {
        std::vector<std::string> keys;
        for (const auto& [expr, desc] : e.window_order_by) {
          keys.push_back(ExprToText(*expr) + (desc ? " DESC" : ""));
        }
        if (!over.empty()) over += " ";
        over += "ORDER BY " + Join(keys, ", ");
      }
      return e.func_name + "() OVER (" + over + ")";
    }
    case sql::ExprKind::kStar:
      return "*";
    case sql::ExprKind::kCase: {
      std::string out = "CASE";
      for (const auto& [when, then] : e.when_clauses) {
        out += " WHEN " + ExprToText(*when) + " THEN " + ExprToText(*then);
      }
      if (e.else_clause != nullptr) {
        out += " ELSE " + ExprToText(*e.else_clause);
      }
      return out + " END";
    }
    case sql::ExprKind::kIsNull:
      return OperandText(*e.left) + (e.negated ? " IS NOT NULL" : " IS NULL");
    case sql::ExprKind::kInList: {
      std::vector<std::string> elems;
      for (const sql::ExprPtr& a : e.args) elems.push_back(ExprToText(*a));
      return OperandText(*e.left) + (e.negated ? " NOT IN (" : " IN (") +
             Join(elems, ", ") + ")";
    }
    case sql::ExprKind::kScalarSubquery:
      return "(subquery)";
    case sql::ExprKind::kInSubquery:
      return OperandText(*e.left) +
             (e.negated ? " NOT IN (subquery)" : " IN (subquery)");
    case sql::ExprKind::kExists:
      return e.negated ? "NOT EXISTS (subquery)" : "EXISTS (subquery)";
    case sql::ExprKind::kInSet:
      return OperandText(*e.left) + (e.negated ? " NOT IN " : " IN ") +
             StrFormat("<set of %zu>", e.set_values.size());
    case sql::ExprKind::kParameter:
      return "$" + std::to_string(e.param_index);
  }
  return "?";
}

LogicalPtr MakeLogical(LogicalKind kind) {
  auto node = std::make_unique<LogicalNode>();
  node->kind = kind;
  return node;
}

LogicalPtr CloneLogical(const LogicalNode& node) {
  LogicalPtr out = MakeLogical(node.kind);
  out->loc = node.loc;
  out->schema = node.schema;
  out->table_name = node.table_name;
  out->is_system_view = node.is_system_view;
  out->table = node.table;
  out->qualifier = node.qualifier;
  out->cte = node.cte;
  for (const sql::ExprPtr& c : node.conjuncts) {
    out->conjuncts.push_back(sql::CloneExpr(*c));
  }
  for (const ProjectItem& item : node.items) {
    ProjectItem copy;
    copy.expr = item.expr != nullptr ? sql::CloneExpr(*item.expr) : nullptr;
    copy.ordinal = item.ordinal;
    out->items.push_back(std::move(copy));
  }
  out->join_kind = node.join_kind;
  for (const JoinKeyPair& key : node.keys) {
    JoinKeyPair copy;
    copy.left = sql::CloneExpr(*key.left);
    copy.right = sql::CloneExpr(*key.right);
    out->keys.push_back(std::move(copy));
  }
  if (node.on_condition != nullptr) {
    out->on_condition = sql::CloneExpr(*node.on_condition);
  }
  for (const sql::ExprPtr& g : node.group_exprs) {
    out->group_exprs.push_back(sql::CloneExpr(*g));
  }
  for (const sql::ExprPtr& a : node.agg_calls) {
    out->agg_calls.push_back(sql::CloneExpr(*a));
  }
  for (const WindowItem& w : node.windows) {
    WindowItem copy;
    copy.call = sql::CloneExpr(*w.call);
    copy.output_name = w.output_name;
    out->windows.push_back(std::move(copy));
  }
  for (const SortKeySpec& k : node.sort_keys) {
    SortKeySpec copy;
    copy.expr = k.expr != nullptr ? sql::CloneExpr(*k.expr) : nullptr;
    copy.ordinal = k.ordinal;
    copy.desc = k.desc;
    out->sort_keys.push_back(std::move(copy));
  }
  out->limit = node.limit;
  out->offset = node.offset;
  for (const LogicalPtr& child : node.children) {
    out->children.push_back(CloneLogical(*child));
  }
  return out;
}

void RecomputeSchemas(LogicalNode* node) {
  for (LogicalPtr& child : node->children) RecomputeSchemas(child.get());
  switch (node->kind) {
    case LogicalKind::kScan:
    case LogicalKind::kCteRef:
    case LogicalKind::kSingleRow:
      return;  // leaf schemas are authoritative as stored
    case LogicalKind::kRelabel:
      node->schema = node->children[0]->schema.WithQualifier(node->qualifier);
      return;
    case LogicalKind::kFilter:
    case LogicalKind::kSort:
    case LogicalKind::kLimit:
    case LogicalKind::kDistinct:
      node->schema = node->children[0]->schema;
      return;
    case LogicalKind::kProject: {
      const Schema& in = node->children[0]->schema;
      Schema out;
      for (size_t i = 0; i < node->items.size(); ++i) {
        if (node->items[i].expr == nullptr) {
          out.Add(in.column(node->items[i].ordinal));
        } else {
          out.Add(node->schema.column(i));  // computed: name is authoritative
        }
      }
      node->schema = std::move(out);
      return;
    }
    case LogicalKind::kJoin:
      node->schema = Schema::Concat(node->children[0]->schema,
                                    node->children[1]->schema);
      return;
    case LogicalKind::kAggregate: {
      const Schema& in = node->children[0]->schema;
      Schema out;
      for (size_t i = 0; i < node->group_exprs.size(); ++i) {
        const sql::Expr& g = *node->group_exprs[i];
        if (g.kind == sql::ExprKind::kColumnRef) {
          if (auto idx = in.Resolve(g.qualifier, g.column); idx.ok()) {
            out.Add(in.column(*idx));
            continue;
          }
        }
        out.Add(node->schema.column(i));
      }
      for (size_t k = 0; k < node->agg_calls.size(); ++k) {
        out.Add(node->schema.column(node->group_exprs.size() + k));
      }
      node->schema = std::move(out);
      return;
    }
    case LogicalKind::kWindow: {
      Schema out = node->children[0]->schema;
      for (const WindowItem& w : node->windows) {
        out.Add(Column{"", w.output_name, ValueType::kInt});
      }
      node->schema = std::move(out);
      return;
    }
    case LogicalKind::kUnion: {
      Schema out;
      for (const Column& c : node->children[0]->schema.columns()) {
        out.Add(Column{"", c.name, c.type});
      }
      node->schema = std::move(out);
      return;
    }
  }
}

namespace {

std::string ColumnText(const Column& c) {
  return c.qualifier.empty() ? c.name : c.qualifier + "." + c.name;
}

std::string NodeText(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kScan: {
      std::string out = "Scan(" + node.table_name;
      if (!EqualsIgnoreCase(node.qualifier, node.table_name)) {
        out += " AS " + node.qualifier;
      }
      if (node.is_system_view) out += ", system";
      return out + ")";
    }
    case LogicalKind::kCteRef: {
      std::string out = "CteRef(" + node.cte->name;
      if (!EqualsIgnoreCase(node.qualifier, node.cte->name)) {
        out += " AS " + node.qualifier;
      }
      return out + ")";
    }
    case LogicalKind::kSingleRow:
      return "SingleRow";
    case LogicalKind::kRelabel:
      return "Relabel(" + node.qualifier + ")";
    case LogicalKind::kFilter: {
      std::vector<std::string> parts;
      for (const sql::ExprPtr& c : node.conjuncts) {
        parts.push_back(ExprToText(*c));
      }
      return "Filter(" + Join(parts, " AND ") + ")";
    }
    case LogicalKind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < node.items.size(); ++i) {
        const ProjectItem& item = node.items[i];
        if (item.expr == nullptr) {
          parts.push_back(ColumnText(node.schema.column(i)));
          continue;
        }
        std::string text = ExprToText(*item.expr);
        const std::string& name = node.schema.column(i).name;
        if (text != name) text += " AS " + name;
        parts.push_back(std::move(text));
      }
      return "Project(" + Join(parts, ", ") + ")";
    }
    case LogicalKind::kJoin: {
      const char* kind = node.join_kind == LogicalJoinKind::kInner
                             ? "inner"
                             : node.join_kind == LogicalJoinKind::kLeft
                                   ? "left"
                                   : "cross";
      std::string out = StrFormat("Join(%s", kind);
      if (!node.keys.empty()) {
        std::vector<std::string> pairs;
        for (const JoinKeyPair& key : node.keys) {
          pairs.push_back(ExprToText(*key.left) + " = " +
                          ExprToText(*key.right));
        }
        out += ", keys: " + Join(pairs, ", ");
      }
      if (node.on_condition != nullptr) {
        out += ", on: " + ExprToText(*node.on_condition);
      }
      return out + ")";
    }
    case LogicalKind::kAggregate: {
      std::string out = "Aggregate(";
      if (!node.group_exprs.empty()) {
        std::vector<std::string> groups;
        for (const sql::ExprPtr& g : node.group_exprs) {
          groups.push_back(ExprToText(*g));
        }
        out += "groups: " + Join(groups, ", ");
        if (!node.agg_calls.empty()) out += "; ";
      }
      if (!node.agg_calls.empty()) {
        std::vector<std::string> calls;
        for (const sql::ExprPtr& a : node.agg_calls) {
          calls.push_back(ExprToText(*a));
        }
        out += "aggs: " + Join(calls, ", ");
      }
      return out + ")";
    }
    case LogicalKind::kWindow: {
      std::vector<std::string> parts;
      for (const WindowItem& w : node.windows) {
        parts.push_back(ExprToText(*w.call) + " AS " + w.output_name);
      }
      return "Window(" + Join(parts, ", ") + ")";
    }
    case LogicalKind::kSort: {
      std::vector<std::string> keys;
      for (const SortKeySpec& k : node.sort_keys) {
        std::string key = k.expr != nullptr
                              ? ExprToText(*k.expr)
                              : StrFormat("pos %zu", k.ordinal + 1);
        if (k.desc) key += " DESC";
        keys.push_back(std::move(key));
      }
      return "Sort(" + Join(keys, ", ") + ")";
    }
    case LogicalKind::kLimit:
      return node.offset != 0
                 ? StrFormat("Limit(%lld offset %lld)",
                             static_cast<long long>(node.limit),
                             static_cast<long long>(node.offset))
                 : StrFormat("Limit(%lld)",
                             static_cast<long long>(node.limit));
    case LogicalKind::kDistinct:
      return "Distinct";
    case LogicalKind::kUnion:
      return StrFormat("UnionAll(%zu inputs)", node.children.size());
  }
  return "?";
}

void RenderInto(const LogicalNode& node, size_t depth,
                std::vector<std::string>* out) {
  out->push_back(std::string(depth * 2, ' ') + NodeText(node));
  for (const LogicalPtr& child : node.children) {
    RenderInto(*child, depth + 1, out);
  }
}

}  // namespace

std::vector<std::string> RenderLogicalTree(const LogicalNode& node) {
  std::vector<std::string> out;
  RenderInto(node, 0, &out);
  return out;
}

std::vector<std::string> RenderLogicalLines(const LogicalPlan& plan) {
  std::vector<std::string> out;
  for (const std::shared_ptr<CteBinding>& cte : plan.ctes) {
    if (cte->plan == nullptr) continue;  // never referenced, never built
    out.push_back("with " + cte->name + ":");
    RenderInto(*cte->plan, 1, &out);
  }
  if (plan.root != nullptr) RenderInto(*plan.root, 0, &out);
  return out;
}

namespace {

void CollectCtesInto(const LogicalNode& node,
                     std::vector<std::shared_ptr<CteBinding>>* out) {
  if (node.kind == LogicalKind::kCteRef && node.cte != nullptr) {
    bool seen = false;
    for (const std::shared_ptr<CteBinding>& b : *out) {
      if (b.get() == node.cte.get()) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      out->push_back(node.cte);
      if (node.cte->plan != nullptr) CollectCtesInto(*node.cte->plan, out);
    }
  }
  for (const LogicalPtr& child : node.children) CollectCtesInto(*child, out);
}

}  // namespace

std::vector<std::shared_ptr<CteBinding>> CollectCtes(const LogicalNode& root) {
  std::vector<std::shared_ptr<CteBinding>> out;
  CollectCtesInto(root, &out);
  return out;
}

}  // namespace bornsql::plan
