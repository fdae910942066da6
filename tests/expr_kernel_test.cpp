// Element-level differential test of the engine's compiled expression
// kernels (src/sim/bytecode.h) against the reference evaluator
// (rt::Evaluator::eval_vector).
//
// Seeded random reduction-free expressions over every BinOp and UnOp, with
// scalar, config, loop-variable, Index, array and shifted-array leaves (every
// declared direction), evaluated on boxes of rank 1 to 3, extent-1
// dimensions included, over operand storage full of NaN, infinities, signed
// zeros, subnormals and ordinary values. The kernels must agree bit for bit,
// element by element: a checksum would let NaN payloads and the sign of
// zero slip through. Each expression is also written in place into one of
// its own operands, as the engine writes a statement into its LHS, and reads
// outside storage must fail with the reference's text.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/parser/parser.h"
#include "src/runtime/darray.h"
#include "src/runtime/eval.h"
#include "src/sim/bytecode.h"
#include "src/support/diag.h"
#include "src/zir/printer.h"

namespace {

using namespace zc;

constexpr int kExprsPerRank = 300;
constexpr int kBoxesPerExpr = 6;
constexpr const char* kArrays[] = {"A", "B", "C"};

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Operand values: every IEEE class the arithmetic treats specially, plus
/// small integers (for comparisons, pow and the logical operators) and
/// ordinary values.
double draw_value(std::mt19937_64& rng) {
  static const double kSpecial[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
      -3.5e-312,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      1.0,
      -1.0,
      2.0,
      0.5,
  };
  std::uniform_int_distribution<int> pick(0, 2);
  if (pick(rng) == 0) {
    std::uniform_int_distribution<std::size_t> which(0, std::size(kSpecial) - 1);
    return kSpecial[which(rng)];
  }
  std::uniform_real_distribution<double> ordinary(-4.0, 4.0);
  return ordinary(rng);
}

/// Generates mini-ZPL expression text over one rank's declarations.
class ExprGen {
 public:
  ExprGen(std::mt19937_64& rng, int rank) : rng_(rng), rank_(rank) {}

  std::string expr(int depth) {
    const int kind = depth <= 0 ? 0 : uniform(0, 9);
    if (kind <= 2) return leaf();
    if (kind <= 6) return binary(depth - 1);
    return unary(depth - 1);
  }

 private:
  int uniform(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  std::string leaf() {
    switch (uniform(0, 9)) {
      case 0: return uniform(0, 1) == 0 ? "s1" : "s2";
      case 1: return "c";
      case 2: return "it";
      case 3: return "Index" + std::to_string(uniform(1, rank_));
      case 4: {
        static const char* kConsts[] = {"0.0", "1.0", "2.5", "0.125", "3.0"};
        return kConsts[uniform(0, 4)];
      }
      case 5:
      case 6: return kArrays[uniform(0, 2)];
      default: {
        // A shift by one of the declared directions: +-1 or +-2 in one dim.
        const int dim = uniform(0, rank_ - 1);
        const int dist = uniform(1, 2);
        const char sign = uniform(0, 1) == 0 ? 'p' : 'm';
        return std::string(kArrays[uniform(0, 2)]) + "@d" + std::to_string(dim) + sign +
               std::to_string(dist);
      }
    }
  }

  std::string binary(int depth) {
    static const char* kInfix[] = {"+", "-", "*", "/", "<", "<=",
                                   ">", ">=", "==", "!=", "&&", "||"};
    static const char* kCalls[] = {"min", "max", "pow"};
    const std::string a = expr(depth);
    const std::string b = expr(depth);
    const int op = uniform(0, 14);
    if (op < 12) return "(" + a + " " + kInfix[op] + " " + b + ")";
    return std::string(kCalls[op - 12]) + "(" + a + ", " + b + ")";
  }

  std::string unary(int depth) {
    static const char* kCalls[] = {"abs", "sqrt", "exp", "log", "sin", "cos"};
    const std::string a = expr(depth);
    const int op = uniform(0, 7);
    if (op == 0) return "(-" + a + ")";
    if (op == 1) return "(!" + a + ")";
    return std::string(kCalls[op - 2]) + "(" + a + ")";
  }

  std::mt19937_64& rng_;
  int rank_;
};

/// One rank's program: kExprsPerRank random statements `[R] A := e;` in a
/// loop, so every leaf kind is in scope.
struct RankCase {
  int rank = 0;
  rt::Box declared;
  rt::Box owned;  ///< one processor's block, well inside the declared region
  std::string source;
};

RankCase make_case(int rank, std::mt19937_64& rng) {
  RankCase rc;
  rc.rank = rank;
  // Extents 12 x 10 x 9 declared; the owned block sits 3+ away from every
  // border, so storage (owned +- 2) stops short of the declared region.
  const std::array<long long, 3> lo = {0, 0, 0};
  const std::array<long long, 3> hi = {11, 9, 8};
  const std::array<long long, 3> own_lo = {4, 3, 3};
  const std::array<long long, 3> own_hi = {7, 6, 5};
  rc.declared = rt::Box::make(rank, lo, hi);
  rc.owned = rt::Box::make(rank, own_lo, own_hi);

  std::string region = "[";
  for (int d = 0; d < rank; ++d) {
    if (d > 0) region += ", ";
    region += std::to_string(lo[d]) + ".." + std::to_string(hi[d]);
  }
  region += "]";
  std::string dirs;
  for (int d = 0; d < rank; ++d) {
    for (const int dist : {1, 2}) {
      for (const int sign : {1, -1}) {
        std::string offsets;
        for (int k = 0; k < rank; ++k) {
          if (k > 0) offsets += ", ";
          offsets += std::to_string(k == d ? sign * dist : 0);
        }
        if (!dirs.empty()) dirs += ",\n          ";
        dirs += "d" + std::to_string(d) + (sign > 0 ? "p" : "m") + std::to_string(dist) + " = [" +
                offsets + "]";
      }
    }
  }
  rc.source = "program kernel" + std::to_string(rank) + ";\nconfig c : integer = 3;\nregion R = " +
              region + ";\ndirection " + dirs +
              ";\nvar A, B, C : [R] double;\nvar s1, s2 : double;\nprocedure main() {\n"
              "  for it in 1..2 {\n";
  ExprGen gen(rng, rank);
  for (int i = 0; i < kExprsPerRank; ++i) rc.source += "    [R] A := " + gen.expr(4) + ";\n";
  rc.source += "  }\n}\n";
  return rc;
}

/// A random sub-box of `outer`, with extent-1 dimensions often.
rt::Box random_box(const rt::Box& outer, std::mt19937_64& rng) {
  rt::Box b = outer;
  for (int d = 0; d < outer.rank; ++d) {
    std::uniform_int_distribution<long long> at(outer.lo[d], outer.hi[d]);
    long long x = at(rng);
    long long y = std::uniform_int_distribution<int>(0, 2)(rng) == 0 ? x : at(rng);
    b.lo[d] = std::min(x, y);
    b.hi[d] = std::max(x, y);
  }
  return b;
}

/// The element of `v` at global index `g` of `box` (see sim::Rows).
double element(const sim::View& v, const rt::Box& box, const std::array<long long, 3>& g) {
  long long rel[3] = {0, 0, 0};
  for (int d = 0; d < box.rank; ++d) rel[d + 3 - box.rank] = g[d] - box.lo[d];
  return v.base[rel[0] * v.s0 + rel[1] * v.s1 + rel[2]];
}

/// Calls fn(g, n) for every element of `box` in row-major order.
template <class Fn>
void for_each_index(const rt::Box& box, Fn&& fn) {
  const long long i_hi = box.hi[0];
  const long long j_lo = box.rank >= 2 ? box.lo[1] : 0;
  const long long j_hi = box.rank >= 2 ? box.hi[1] : 0;
  const long long k_lo = box.rank >= 3 ? box.lo[2] : 0;
  const long long k_hi = box.rank >= 3 ? box.hi[2] : 0;
  std::size_t n = 0;
  for (long long i = box.lo[0]; i <= i_hi; ++i) {
    for (long long j = j_lo; j <= j_hi; ++j) {
      for (long long k = k_lo; k <= k_hi; ++k) fn(std::array<long long, 3>{i, j, k}, n++);
    }
  }
}

/// Resolves every load of `prog` over `box`; the error text, or "".
std::string resolve(const sim::ExprProg& prog, const zir::Program& program,
                    const std::vector<rt::LocalArray>& arrays, const rt::Box& box,
                    std::vector<sim::View>& views) {
  try {
    sim::resolve_views(prog, program, arrays, box, views);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ExprKernel, MatchesTheReferenceEvaluatorBitForBit) {
  std::mt19937_64 rng(20261019);
  long long elements = 0;
  long long in_place = 0;
  long long errors = 0;
  for (const int rank : {1, 2, 3}) {
    const RankCase rc = make_case(rank, rng);
    const zir::Program program = parser::parse_program(rc.source);
    const auto fluff = rt::fluff_widths(program);

    std::vector<rt::LocalArray> arrays;
    for (std::size_t a = 0; a < program.array_count(); ++a) {
      arrays.emplace_back(rc.owned, rc.declared, fluff);
      rt::LocalArray& la = arrays.back();
      double* data = la.data();
      for (std::size_t i = 0; i < la.allocation_size(); ++i) data[i] = draw_value(rng);
    }
    const std::vector<double> scalars = {draw_value(rng), draw_value(rng)};
    zir::IntEnv env = program.default_env();
    for (std::size_t v = 0; v < env.loop_bound.size(); ++v) {
      env.loop_bound[v] = true;
      env.loop_values[v] = 2;
    }
    const rt::Evaluator evaluator(program);
    rt::EvalContext ctx;
    ctx.program = &program;
    ctx.arrays = &arrays;
    ctx.scalars = &scalars;
    ctx.env = &env;

    // The statements inside `for it in ...`, in order.
    const zir::Stmt& loop = program.stmt(program.proc(program.entry()).body.at(0));
    ASSERT_EQ(loop.body.size(), static_cast<std::size_t>(kExprsPerRank));
    sim::ExprScratch scratch;
    std::vector<sim::View> views;
    std::vector<double> want;
    for (const zir::StmtId sid : loop.body) {
      const zir::Stmt& stmt = program.stmt(sid);
      const sim::ExprProg prog = sim::compile_expr(program, stmt.rhs);
      const bool via_temp = sim::last_step_reads_shifted(program, stmt.rhs, stmt.lhs_array);
      for (int b = 0; b < kBoxesPerExpr; ++b) {
        // Boxes inside the owned block, where every read is covered, and
        // one per expression reaching up to 3 past it, where a +-2 shift
        // or an unshifted read can leave storage.
        rt::Box outer = rc.owned;
        const bool wide = b == kBoxesPerExpr - 1;
        if (wide) {
          for (int d = 0; d < rank; ++d) {
            outer.lo[d] -= 3;
            outer.hi[d] += 3;
          }
        }
        const rt::Box box = random_box(outer, rng);
        SCOPED_TRACE(zir::expr_to_string(program, stmt.rhs) + " over " + box.to_string());
        ctx.box = box;
        std::string want_error;
        try {
          evaluator.eval_vector(ctx, stmt.rhs, want);
        } catch (const Error& e) {
          want_error = e.what();
        }
        const std::string got_error = resolve(prog, program, arrays, box, views);
        ASSERT_EQ(got_error, want_error);
        if (!want_error.empty()) {
          ++errors;
          continue;
        }

        // Into a temporary (or the operand's own view, for a bare load).
        const sim::View got =
            sim::eval_expr_prog(prog, box, views.data(), scalars, env, scratch);
        elements += box.count();
        for_each_index(box, [&](const std::array<long long, 3>& g, std::size_t n) {
          ASSERT_TRUE(bits_eq(element(got, box, g), want[n]))
              << "element " << n << ": " << element(got, box, g) << " vs " << want[n];
        });

        // In place into A, which the expression may read at any shift.
        if (!arrays[0].covers(box)) continue;
        std::vector<rt::LocalArray> lhs_arrays = arrays;
        ASSERT_EQ(resolve(prog, program, lhs_arrays, box, views), "");
        rt::LocalArray& lhs = lhs_arrays[static_cast<std::size_t>(stmt.lhs_array.index())];
        const sim::Dest dest = sim::dest_at(lhs, lhs.offset_of(box));
        sim::eval_expr_prog(prog, box, views.data(), scalars, env, scratch, &dest, via_temp);
        for_each_index(box, [&](const std::array<long long, 3>& g, std::size_t n) {
          ASSERT_TRUE(bits_eq(lhs.at(g[0], g[1], g[2]), want[n]))
              << "in place, element " << n << ": " << lhs.at(g[0], g[1], g[2]) << " vs "
              << want[n];
        });
        in_place += box.count();
      }
    }
  }
  // The run compared real work on both paths, and reached the error path.
  std::printf("compared %lld elements (%lld in place), %lld read errors\n", elements, in_place,
              errors);
  EXPECT_GT(elements, 15000);
  EXPECT_GT(in_place, 10000);
  EXPECT_GT(errors, 100);
}

}  // namespace
