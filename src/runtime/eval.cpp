#include "src/runtime/eval.h"

#include <cmath>
#include <limits>

#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::rt {

double reduce_identity(zir::ReduceOp op) {
  switch (op) {
    case zir::ReduceOp::kSum: return 0.0;
    case zir::ReduceOp::kMax: return -std::numeric_limits<double>::infinity();
    case zir::ReduceOp::kMin: return std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

Error uncovered_read_error(const std::string& name, bool shifted, const Box& need,
                           const Box& have) {
  return Error((shifted ? "shifted read of '" : "read of '") + name +
               "' outside its declared region (" +
               (shifted ? "program reads past its border" : "statement region exceeds it") +
               "): need " + need.to_string() + ", have " + have.to_string());
}

double Evaluator::apply_bin_scalar(zir::BinOp op, double a, double b) const {
  return apply_bin(op, a, b);
}

double Evaluator::apply_un_scalar(zir::UnOp op, double a) const {
  return apply_un(op, a);
}

Evaluator::Value Evaluator::eval(const EvalContext& ctx, zir::ExprId id) const {
  const zir::Expr& e = p_.expr(id);
  Value out;
  const std::size_t n = static_cast<std::size_t>(ctx.box.count());

  switch (e.kind) {
    case zir::Expr::Kind::kConst:
      out.s = e.const_value;
      return out;
    case zir::Expr::Kind::kScalarRef:
      out.s = (*ctx.scalars)[e.scalar.index()];
      return out;
    case zir::Expr::Kind::kLoopVarRef: {
      ZC_ASSERT(ctx.env->loop_bound[e.loop_var.index()]);
      out.s = static_cast<double>(ctx.env->loop_values[e.loop_var.index()]);
      return out;
    }
    case zir::Expr::Kind::kConfigRef:
      out.s = static_cast<double>(ctx.env->config_values[e.config.index()]);
      return out;

    case zir::Expr::Kind::kArrayRef: {
      out.is_vec = true;
      out.v.resize(n);
      const LocalArray& a = (*ctx.arrays)[e.array.index()];
      if (!a.covers(ctx.box)) {
        throw uncovered_read_error(p_.array(e.array).name, false, ctx.box, a.storage_box());
      }
      a.read_box(ctx.box, out.v.data());
      return out;
    }
    case zir::Expr::Kind::kShift: {
      out.is_vec = true;
      out.v.resize(n);
      const LocalArray& a = (*ctx.arrays)[e.array.index()];
      const Box src = ctx.box.shifted(p_.direction(e.direction).offsets);
      if (!a.covers(src)) {
        throw uncovered_read_error(p_.array(e.array).name, true, src, a.storage_box());
      }
      a.read_box(src, out.v.data());
      return out;
    }
    case zir::Expr::Kind::kIndex: {
      out.is_vec = true;
      out.v.resize(n);
      const int dim = e.index_dim - 1;
      ZC_ASSERT(dim >= 0 && dim < ctx.box.rank);
      std::size_t k = 0;
      const Box& b = ctx.box;
      const long long j_lo = b.rank >= 2 ? b.lo[1] : 0;
      const long long j_hi = b.rank >= 2 ? b.hi[1] : 0;
      const long long k_lo = b.rank >= 3 ? b.lo[2] : 0;
      const long long k_hi = b.rank >= 3 ? b.hi[2] : 0;
      for (long long i = b.lo[0]; i <= b.hi[0]; ++i) {
        for (long long j = j_lo; j <= j_hi; ++j) {
          for (long long kk = k_lo; kk <= k_hi; ++kk) {
            const long long coord = dim == 0 ? i : dim == 1 ? j : kk;
            out.v[k++] = static_cast<double>(coord);
          }
        }
      }
      return out;
    }

    case zir::Expr::Kind::kBinary: {
      Value a = eval(ctx, e.lhs);
      Value b = eval(ctx, e.rhs);
      if (!a.is_vec && !b.is_vec) {
        out.s = apply_bin_scalar(e.bin_op, a.s, b.s);
        return out;
      }
      out.is_vec = true;
      if (a.is_vec && b.is_vec) {
        out.v = std::move(a.v);
        for (std::size_t i = 0; i < n; ++i) out.v[i] = apply_bin_scalar(e.bin_op, out.v[i], b.v[i]);
      } else if (a.is_vec) {
        out.v = std::move(a.v);
        for (std::size_t i = 0; i < n; ++i) out.v[i] = apply_bin_scalar(e.bin_op, out.v[i], b.s);
      } else {
        out.v = std::move(b.v);
        for (std::size_t i = 0; i < n; ++i) out.v[i] = apply_bin_scalar(e.bin_op, a.s, out.v[i]);
      }
      return out;
    }
    case zir::Expr::Kind::kUnary: {
      Value a = eval(ctx, e.lhs);
      if (!a.is_vec) {
        out.s = apply_un_scalar(e.un_op, a.s);
        return out;
      }
      out.is_vec = true;
      out.v = std::move(a.v);
      for (std::size_t i = 0; i < n; ++i) out.v[i] = apply_un_scalar(e.un_op, out.v[i]);
      return out;
    }
    case zir::Expr::Kind::kReduce:
      // Reductions never appear in vector contexts (validated); the scalar
      // paths below intercept them before reaching here.
      throw Error("internal: reduction evaluated in vector context");
  }
  ZC_ASSERT(false);
  return out;
}

void Evaluator::eval_vector(const EvalContext& ctx, zir::ExprId id,
                            std::vector<double>& out) const {
  Value v = eval(ctx, id);
  const std::size_t n = static_cast<std::size_t>(ctx.box.count());
  if (v.is_vec) {
    out = std::move(v.v);
  } else {
    out.assign(n, v.s);
  }
}

void Evaluator::eval_reduce_partials(const EvalContext& ctx, zir::ExprId id,
                                     std::vector<double>& partials) const {
  const std::vector<zir::ExprId> nodes = zir::collect_reduce_exprs(p_, id);
  partials.clear();
  std::vector<double> buf;
  for (zir::ExprId node : nodes) {
    const zir::Expr& e = p_.expr(node);
    double acc = reduce_identity(e.reduce_op);
    if (!ctx.box.empty()) {
      eval_vector(ctx, e.lhs, buf);
      for (double x : buf) acc = reduce_combine(e.reduce_op, acc, x);
    }
    partials.push_back(acc);
  }
}

std::vector<zir::ReduceOp> Evaluator::reduce_ops(zir::ExprId id) const {
  const std::vector<zir::ExprId> nodes = zir::collect_reduce_exprs(p_, id);
  std::vector<zir::ReduceOp> ops;
  ops.reserve(nodes.size());
  for (zir::ExprId node : nodes) ops.push_back(p_.expr(node).reduce_op);
  return ops;
}

double Evaluator::eval_scalar(const EvalContext& ctx, zir::ExprId id,
                              std::span<const double> reduce_values) const {
  std::size_t next = 0;
  const double result = eval_scalar_rec(ctx, id, reduce_values, next);
  ZC_ASSERT(next == reduce_values.size());
  return result;
}

double Evaluator::eval_scalar_rec(const EvalContext& ctx, zir::ExprId id,
                                  std::span<const double> reduce_values,
                                  std::size_t& next_reduce) const {
  const zir::Expr& e = p_.expr(id);
  switch (e.kind) {
    case zir::Expr::Kind::kConst:
      return e.const_value;
    case zir::Expr::Kind::kScalarRef:
      return (*ctx.scalars)[e.scalar.index()];
    case zir::Expr::Kind::kLoopVarRef:
      ZC_ASSERT(ctx.env->loop_bound[e.loop_var.index()]);
      return static_cast<double>(ctx.env->loop_values[e.loop_var.index()]);
    case zir::Expr::Kind::kConfigRef:
      return static_cast<double>(ctx.env->config_values[e.config.index()]);
    case zir::Expr::Kind::kReduce:
      ZC_ASSERT(next_reduce < reduce_values.size());
      return reduce_values[next_reduce++];
    case zir::Expr::Kind::kBinary: {
      // Left-to-right so reduce-value consumption matches DFS order.
      const double a = eval_scalar_rec(ctx, e.lhs, reduce_values, next_reduce);
      const double b = eval_scalar_rec(ctx, e.rhs, reduce_values, next_reduce);
      return apply_bin_scalar(e.bin_op, a, b);
    }
    case zir::Expr::Kind::kUnary:
      return apply_un_scalar(e.un_op, eval_scalar_rec(ctx, e.lhs, reduce_values, next_reduce));
    case zir::Expr::Kind::kArrayRef:
    case zir::Expr::Kind::kShift:
    case zir::Expr::Kind::kIndex:
      throw Error("internal: array-valued node in scalar evaluation");
  }
  ZC_ASSERT(false);
  return 0.0;
}

}  // namespace zc::rt
