// Compiled ZIR: the lowering pass that flattens a (program, comm plan) pair
// into a direct-threaded bytecode, plus the compiled-expression programs the
// engine executes (see src/sim/engine.cpp).
//
// The reference interpreter (src/sim/reference.h) walks the statement tree
// per executed statement: map lookups to find the block plan, recursive
// expression evaluation with a heap-allocated Value per node, and O(procs)
// geometry scans per communication. Lowering hoists all of that to compile
// time:
//
//   * control flow (loops, branches, calls, comm insertion points) becomes
//     a flat instruction array with jump targets — calls are inlined
//     (validation guarantees no recursion), block plans are pre-resolved;
//   * expressions become postfix programs over strided views of local
//     storage: an operand is read where it lives, each step picks its
//     operator once per box rather than once per element, and the last step
//     writes straight into the LHS — no per-node allocation, no operand
//     copies;
//   * statement cost metadata (flops, arrays touched) and loop-invariant
//     ("static") region boxes are evaluated once, and so are a static
//     statement's active processors with their operands' storage offsets;
//   * communication geometry — the point-to-point messages a CommGroup
//     decomposes into — is cached per evaluated member-region key, with
//     transport channels pre-resolved per message.
//
// Everything here preserves the reference interpreter's observable
// behaviour bit-for-bit: the same arithmetic in the same order per element,
// the same transport/recorder/timeline call sequence, the same error
// messages. DESIGN.md §15 states the argument; tests/engine_event_test.cpp
// pins it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/comm/plan.h"
#include "src/machine/model.h"
#include "src/runtime/darray.h"
#include "src/runtime/eval.h"
#include "src/runtime/layout.h"
#include "src/sim/transport.h"
#include "src/zir/program.h"

namespace zc::sim {

// ---------------------------------------------------------------------------
// Compiled expressions: postfix programs whose vector stack holds strided
// views of row-major boxes, not copies. A load pushes a view of its operand
// where it lives in local storage. kLoadIndex and each arithmetic step
// choose their operator once, then run one loop nest whose inner loop walks
// the contiguous elements of a row; the result goes to a temporary (in
// place when the left operand already is one) or, for the last step,
// straight into the destination.

/// Where a box's elements live, row-major: element (i, j, k) of the box,
/// counted from its low corner with k along the last dimension, is at
/// base[i * s0 + j * s1 + k]. Rank-2 boxes have i = 0 and rank-1 boxes
/// i = j = 0, so their unused strides are 0.
template <class T>
struct Rows {
  T* base = nullptr;
  long long s0 = 0;
  long long s1 = 0;
};
using View = Rows<const double>;
using Dest = Rows<double>;

struct ExprStep {
  enum class Op : std::uint8_t {
    kConstS,     ///< push literal on the scalar stack
    kScalarS,    ///< push scalars[a]
    kLoopVarS,   ///< push loop value a (must be bound)
    kConfigS,    ///< push config value a
    kBinSS,      ///< scalar ⊗ scalar
    kUnS,        ///< scalar unary
    kLoad,       ///< push the view of the next ExprProg::loads operand
    kLoadIndex,  ///< push vector: global index in (1-based) dimension a
    kBinVV,      ///< vector ⊗ vector
    kBinVS,      ///< vector ⊗ scalar
    kBinSV,      ///< scalar ⊗ vector
    kUnV,        ///< vector unary
  };
  Op op = Op::kConstS;
  zir::BinOp bin_op = zir::BinOp::kAdd;
  zir::UnOp un_op = zir::UnOp::kNeg;
  std::int32_t a = 0;  ///< scalar / config / loop-var / dimension
  double value = 0.0;  ///< kConstS literal
};

/// One array operand of an expression: the array and the shift it is read
/// at.
struct ExprLoad {
  std::int32_t array = 0;
  bool shifted = false;                     ///< an A@d read
  std::array<int, rt::kMaxRank> offsets{};  ///< the direction's, 0-padded
};

struct ExprProg {
  std::vector<ExprStep> steps;
  std::vector<ExprLoad> loads;  ///< array operands, in evaluation order
  bool is_vec = false;          ///< result kind; scalar results splat over the box
  int max_vdepth = 0;           ///< vector-stack high-water mark
};

/// Reusable evaluation scratch shared by every ExprProg of a run.
struct ExprScratch {
  std::vector<View> vstack;
  std::vector<std::vector<double>> temps;  ///< step results, one per stack depth
  std::vector<double> sstack;
};

/// Compiles a reduction-free value expression. Throws on Reduce nodes (the
/// engine compiles reduce operands individually).
ExprProg compile_expr(const zir::Program& program, zir::ExprId id);

/// True when writing the last step of `rhs`'s program straight into
/// `array`'s storage could overwrite elements that step still reads: one of
/// its own operands, or the bare load that is the whole expression, reads
/// `array` at a nonzero shift. Earlier steps finish before the last one
/// writes, so their reads never matter.
bool last_step_reads_shifted(const zir::Program& program, zir::ExprId rhs, zir::ArrayId array);

/// The storage offset at which load `ld` of target box `box` starts in
/// `a`, after checking that `a`'s storage covers the (shifted) box. Throws
/// the reference evaluator's error otherwise (rt::uncovered_read_error).
long long resolve_load(const ExprLoad& ld, const zir::Program& program, const rt::LocalArray& a,
                       const rt::Box& box);

/// The rows of `a`'s storage from `offset` on, for a box of `a`'s rank.
View view_at(const rt::LocalArray& a, long long offset);
Dest dest_at(rt::LocalArray& a, long long offset);

/// Points `views` (resized to prog.loads.size()) at every load of `prog`
/// over `box` in one processor's `arrays`, in order, throwing as
/// resolve_load does at the first load its storage does not cover.
void resolve_views(const ExprProg& prog, const zir::Program& program,
                   const std::vector<rt::LocalArray>& arrays, const rt::Box& box,
                   std::vector<View>& views);

/// Evaluates `prog` over `box` for one processor. `loads` holds the view
/// of every entry of prog.loads (resolve_views).
///
/// With `dest`, the result is stored there and *dest's view is returned.
/// The last step writes straight into *dest, or, when `via_temp`, into one
/// temporary that is then copied (see last_step_reads_shifted). Without
/// `dest`, returns where the result lives: an operand's own view for a bare
/// load, else a temporary in `scratch`, valid until the next call.
///
/// Bit-identical to Evaluator::eval_vector on the source expression: each
/// element gets the same operations on the same operands in the same order.
View eval_expr_prog(const ExprProg& prog, const rt::Box& box, const View* loads,
                    const std::vector<double>& scalars, const zir::IntEnv& env,
                    ExprScratch& scratch, const Dest* dest = nullptr, bool via_temp = false);

/// Folds the elements at `values`, rows of `box`, into `op`'s identity in
/// row-major order: the reference's order.
double fold_view(zir::ReduceOp op, const rt::Box& box, const View& values);

// ---------------------------------------------------------------------------
// Instruction stream.

struct Inst {
  enum class Op : std::uint8_t {
    kAssign,   ///< a = index into CompiledSim::assigns
    kScalar,   ///< a = index into CompiledSim::scalar_stmts
    kReduce,   ///< a = index into CompiledSim::reduces
    kCommDR,   ///< a = index into CompiledSim::groups (likewise below)
    kCommSR,
    kCommDN,
    kCommSV,
    kForInit,  ///< a = loop index; b = pc past the loop (empty ranges)
    kForNext,  ///< a = loop index; b = pc of the loop body
    kIf,       ///< a = if index; b = pc of the else branch
    kJump,     ///< b = target pc
    kHalt,
  };
  Op op = Op::kHalt;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

// ---------------------------------------------------------------------------
// Side tables. `stmt` pointers reference the program's arena (stable).
// Mutable fields are per-run execution caches (the engine is single-use).

struct CompiledAssign {
  const zir::Stmt* stmt = nullptr;
  std::int32_t lhs_array = 0;
  ExprProg rhs;
  bool via_temp = false;  ///< last_step_reads_shifted of the statement
  /// flops·flop_time + arrays_touched·elem_mem_time, precomputed with the
  /// exact expression shape of the reference interpreter's cost model.
  double per_elem_cost = 0.0;
  bool region_static = false;  ///< no loop variables in the region bounds
  rt::Box static_box;          ///< pre-evaluated when region_static

  /// Lazily-built active-processor cache for static regions: the processors
  /// whose owned block intersects the region, ascending, with local boxes
  /// and full statement cost precomputed. `offsets` holds, per active, the
  /// storage offset of the LHS and then of each of rhs.loads, resolved and
  /// bounds-checked once.
  struct Active {
    int proc = 0;
    rt::Box local;
    double cost = 0.0;
  };
  bool actives_ready = false;
  std::vector<Active> actives;
  std::vector<long long> offsets;  ///< 1 + rhs.loads.size() per active
};

struct CompiledScalarStmt {
  const zir::Stmt* stmt = nullptr;  ///< non-reduce scalar assignment
};

struct CompiledReduce {
  const zir::Stmt* stmt = nullptr;
  std::vector<zir::ReduceOp> ops;   ///< DFS order (collect_reduce_exprs)
  std::vector<ExprProg> operands;   ///< one per reduce node, same order
  double per_elem_cost = 0.0;
  bool region_static = false;
  rt::Box static_box;
};

struct CompiledLoop {
  const zir::Stmt* stmt = nullptr;  ///< kFor: bounds, step, loop var
};

struct CompiledIf {
  const zir::Stmt* stmt = nullptr;  ///< kIf: condition
};

/// The point-to-point messages one CommGroup execution decomposes into under
/// fixed member-region boxes, with transport channels pre-resolved. Cached:
/// identical member boxes imply identical geometry (the build depends only
/// on the boxes, the fixed distribution, and the fixed declared regions).
struct CommGeometry {
  struct Part {
    std::int32_t array = 0;
    rt::Box box;
  };
  struct Msg {
    int src = 0;
    int dst = 0;
    long long bytes = 0;
    std::vector<Part> parts;
    Transport::ChannelHandle channel;
    /// SR-captured payload, cleared at DN (retains capacity — the cached
    /// geometry doubles as the payload's allocation pool).
    std::vector<double> payload;
  };
  std::vector<Msg> msgs;
  std::vector<int> participants;  ///< procs appearing as src or dst, ascending
};

struct CompiledGroup {
  const comm::CommGroup* group = nullptr;
  struct MemberSpec {
    std::int32_t array = 0;
    const zir::RegionSpec* region = nullptr;
    bool is_static = false;
    rt::Box static_box;  ///< pre-evaluated when is_static
  };
  std::vector<MemberSpec> members;
  bool all_static = true;

  // Geometry caches + the at-most-one outstanding execution (DR..SV).
  bool static_ready = false;
  CommGeometry static_geom;
  std::map<std::vector<long long>, CommGeometry> dynamic_geoms;
  CommGeometry* outstanding = nullptr;
};

/// The compiled form of (program, plan) for one run.
struct CompiledSim {
  std::vector<Inst> code;
  std::vector<CompiledAssign> assigns;
  std::vector<CompiledScalarStmt> scalar_stmts;
  std::vector<CompiledReduce> reduces;
  std::vector<CompiledLoop> loops;
  std::vector<CompiledIf> ifs;
  std::vector<CompiledGroup> groups;
};

/// Lowers the entry procedure (calls inlined, block plans pre-resolved,
/// comm call slots expanded in DR/SR/DN/SV order at each insertion point).
/// `env` carries the run's config values, fixing every loop-invariant
/// region at compile time; `machine` prices the per-statement cost model.
CompiledSim compile_sim(const zir::Program& program, const comm::CommPlan& plan,
                        const zir::IntEnv& env, const machine::MachineModel& machine);

}  // namespace zc::sim
