// Per-processor evaluation of ZIR expressions over local index boxes.
//
// Array-valued expressions evaluate element-wise over a target box (the
// intersection of the statement's region with the processor's owned block),
// reading shifted operands from fluff when they fall outside the owned
// block. Scalar-valued expressions evaluate once; reductions are two-phase
// (local partial here, cross-processor combine in the engine).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "src/runtime/darray.h"
#include "src/runtime/layout.h"
#include "src/support/diag.h"
#include "src/zir/program.h"

namespace zc::rt {

/// Evaluation context for one processor.
struct EvalContext {
  const zir::Program* program = nullptr;
  /// This processor's storage, indexed by ArrayId.
  const std::vector<LocalArray>* arrays = nullptr;
  /// Replicated scalar values, indexed by ScalarId.
  const std::vector<double>* scalars = nullptr;
  /// Config values and current loop-variable bindings.
  const zir::IntEnv* env = nullptr;
  /// Target box for array-valued evaluation.
  Box box;
};

/// a + b and a * b, returning a's NaN when both operands are NaN. IEEE 754
/// leaves open which input NaN such an operation returns, and compilers
/// commute + and * freely, so one expression compiled into two loops of
/// different shape (the Evaluator's and the engine's kernels) could disagree
/// on the sign and payload of that NaN. On x86-64 the instruction is pinned
/// with `a` as its first source, the operand addsd/mulsd return; elsewhere
/// the choice is the compiler's.
inline double add_left(double a, double b) {
#if defined(__x86_64__) && defined(__AVX__)
  asm("vaddsd %2, %1, %0" : "=x"(a) : "x"(a), "x"(b));
#elif defined(__x86_64__) && defined(__SSE2_MATH__)
  asm("addsd %1, %0" : "+x"(a) : "x"(b));
#else
  a = a + b;
#endif
  return a;
}

inline double mul_left(double a, double b) {
#if defined(__x86_64__) && defined(__AVX__)
  asm("vmulsd %2, %1, %0" : "=x"(a) : "x"(a), "x"(b));
#elif defined(__x86_64__) && defined(__SSE2_MATH__)
  asm("mulsd %1, %0" : "+x"(a) : "x"(b));
#else
  a = a * b;
#endif
  return a;
}

/// Identity element of a reduction.
double reduce_identity(zir::ReduceOp op);
/// Combines two partial values. Inline, like apply_bin below, so a fold
/// with a constant operator compiles to its one operation.
inline double reduce_combine(zir::ReduceOp op, double a, double b) {
  switch (op) {
    case zir::ReduceOp::kSum: return add_left(a, b);
    case zir::ReduceOp::kMax: return std::max(a, b);
    case zir::ReduceOp::kMin: return std::min(a, b);
  }
  return 0.0;
}

/// The error for reading array `name` over `need` where this processor's
/// storage holds only `have`: a shifted read past the array's border, or an
/// unshifted read over a statement region larger than the array's declared
/// region. The Evaluator and the engine's compiled kernels both raise it, so
/// their messages are identical.
Error uncovered_read_error(const std::string& name, bool shifted, const Box& need,
                           const Box& have);

/// Scalar semantics of the value operators. Inline and shared between the
/// tree-walking Evaluator and the compiled expression programs (src/sim/
/// bytecode) so both paths perform bit-identical arithmetic.
inline double apply_bin(zir::BinOp op, double a, double b) {
  using zir::BinOp;
  switch (op) {
    case BinOp::kAdd: return add_left(a, b);
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return mul_left(a, b);
    case BinOp::kDiv: return a / b;
    case BinOp::kMin: return std::min(a, b);
    case BinOp::kMax: return std::max(a, b);
    case BinOp::kPow: return std::pow(a, b);
    case BinOp::kLt: return a < b ? 1.0 : 0.0;
    case BinOp::kLe: return a <= b ? 1.0 : 0.0;
    case BinOp::kGt: return a > b ? 1.0 : 0.0;
    case BinOp::kGe: return a >= b ? 1.0 : 0.0;
    case BinOp::kEq: return a == b ? 1.0 : 0.0;
    case BinOp::kNe: return a != b ? 1.0 : 0.0;
    case BinOp::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case BinOp::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  return 0.0;
}

inline double apply_un(zir::UnOp op, double a) {
  using zir::UnOp;
  switch (op) {
    case UnOp::kNeg: return -a;
    case UnOp::kNot: return a == 0.0 ? 1.0 : 0.0;
    case UnOp::kAbs: return std::fabs(a);
    case UnOp::kSqrt: return std::sqrt(a);
    case UnOp::kExp: return std::exp(a);
    case UnOp::kLog: return std::log(a);
    case UnOp::kSin: return std::sin(a);
    case UnOp::kCos: return std::cos(a);
  }
  return 0.0;
}

class Evaluator {
 public:
  explicit Evaluator(const zir::Program& program) : p_(program) {}

  /// Evaluates an array-valued expression over ctx.box into `out`
  /// (resized to box.count(), row-major). The expression must not contain
  /// reductions.
  void eval_vector(const EvalContext& ctx, zir::ExprId id, std::vector<double>& out) const;

  /// Local partials for each Reduce node of a scalar-valued expression, in
  /// first-occurrence DFS order. Partials for an empty box are the
  /// reduction identity.
  void eval_reduce_partials(const EvalContext& ctx, zir::ExprId id,
                            std::vector<double>& partials) const;

  /// The reduce operators in the same DFS order as the partials.
  std::vector<zir::ReduceOp> reduce_ops(zir::ExprId id) const;

  /// Evaluates a scalar-valued expression; `reduce_values` supplies the
  /// globally-combined value for each Reduce node (DFS order).
  double eval_scalar(const EvalContext& ctx, zir::ExprId id,
                     std::span<const double> reduce_values) const;

 private:
  struct Value {
    bool is_vec = false;
    double s = 0.0;
    std::vector<double> v;
  };

  Value eval(const EvalContext& ctx, zir::ExprId id) const;
  double eval_scalar_rec(const EvalContext& ctx, zir::ExprId id,
                         std::span<const double> reduce_values, std::size_t& next_reduce) const;
  double apply_bin_scalar(zir::BinOp op, double a, double b) const;
  double apply_un_scalar(zir::UnOp op, double a) const;

  const zir::Program& p_;
};

}  // namespace zc::rt
