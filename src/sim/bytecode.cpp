#include "src/sim/bytecode.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::sim {

namespace {

class ExprCompiler {
 public:
  explicit ExprCompiler(const zir::Program& program) : p_(program) {}

  ExprProg compile(zir::ExprId id) {
    prog_.is_vec = emit(id);
    return std::move(prog_);
  }

 private:
  /// Emits postfix steps for `id`; returns true when the node is
  /// array-valued. Operand order (left subtree fully before right) matches
  /// the recursive evaluator, so loads, and with them the out-of-storage
  /// read errors, come in the same order.
  bool emit(zir::ExprId id) {
    const zir::Expr& e = p_.expr(id);
    ExprStep st;
    switch (e.kind) {
      case zir::Expr::Kind::kConst:
        st.op = ExprStep::Op::kConstS;
        st.value = e.const_value;
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kScalarRef:
        st.op = ExprStep::Op::kScalarS;
        st.a = e.scalar.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kLoopVarRef:
        st.op = ExprStep::Op::kLoopVarS;
        st.a = e.loop_var.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kConfigRef:
        st.op = ExprStep::Op::kConfigS;
        st.a = e.config.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kArrayRef:
      case zir::Expr::Kind::kShift: {
        ExprLoad ld;
        ld.array = e.array.index();
        if (e.kind == zir::Expr::Kind::kShift) {
          ld.shifted = true;
          const std::vector<int>& offsets = p_.direction(e.direction).offsets;
          for (std::size_t d = 0; d < offsets.size() && d < ld.offsets.size(); ++d) {
            ld.offsets[d] = offsets[d];
          }
        }
        prog_.loads.push_back(ld);
        st.op = ExprStep::Op::kLoad;
        prog_.steps.push_back(st);
        push_vec();
        return true;
      }
      case zir::Expr::Kind::kIndex:
        st.op = ExprStep::Op::kLoadIndex;
        st.a = e.index_dim;
        prog_.steps.push_back(st);
        push_vec();
        return true;
      case zir::Expr::Kind::kBinary: {
        const bool lv = emit(e.lhs);
        const bool rv = emit(e.rhs);
        st.bin_op = e.bin_op;
        if (lv && rv) {
          st.op = ExprStep::Op::kBinVV;
          --vdepth_;
        } else if (lv) {
          st.op = ExprStep::Op::kBinVS;
        } else if (rv) {
          st.op = ExprStep::Op::kBinSV;
        } else {
          st.op = ExprStep::Op::kBinSS;
        }
        prog_.steps.push_back(st);
        return lv || rv;
      }
      case zir::Expr::Kind::kUnary: {
        const bool v = emit(e.lhs);
        st.op = v ? ExprStep::Op::kUnV : ExprStep::Op::kUnS;
        st.un_op = e.un_op;
        prog_.steps.push_back(st);
        return v;
      }
      case zir::Expr::Kind::kReduce:
        throw Error("internal: reduction compiled in vector context");
    }
    ZC_ASSERT(false);
    return false;
  }

  void push_vec() {
    ++vdepth_;
    prog_.max_vdepth = std::max(prog_.max_vdepth, vdepth_);
  }

  const zir::Program& p_;
  ExprProg prog_;
  int vdepth_ = 0;
};

/// The extents of a box as (outer, middle, row): rank-1 and rank-2 boxes
/// fill the trailing ones.
struct Shape {
  long long n0 = 1;
  long long n1 = 1;
  long long n2 = 0;
};

Shape shape_of(const rt::Box& b) {
  const auto ext = [&b](int d) { return b.hi[d] - b.lo[d] + 1; };
  switch (b.rank) {
    case 1: return {1, 1, ext(0)};
    case 2: return {1, ext(0), ext(1)};
    default: return {ext(0), ext(1), ext(2)};
  }
}

template <class T>
T* row(const Rows<T>& r, long long i, long long j) {
  return r.base + i * r.s0 + j * r.s1;
}

View as_view(const Dest& d) { return {d.base, d.s0, d.s1}; }

/// Calls fn(i, j) for every row of the shape, in row-major order.
template <class Fn>
void for_rows(const Shape& sh, Fn&& fn) {
  for (long long i = 0; i < sh.n0; ++i) {
    for (long long j = 0; j < sh.n1; ++j) fn(i, j);
  }
}

// The operators as types, so each kernel below is instantiated once per
// operator with its switch folded away: the per-element arithmetic is
// rt::apply_bin / rt::apply_un itself, which the reference calls too.
template <zir::BinOp Op>
struct Bin {
  double operator()(double a, double b) const { return rt::apply_bin(Op, a, b); }
};
template <zir::UnOp Op>
struct Un {
  double operator()(double a) const { return rt::apply_un(Op, a); }
};

template <class Fn>
void with_bin(zir::BinOp op, Fn&& fn) {
  using B = zir::BinOp;
  switch (op) {
    case B::kAdd: return fn(Bin<B::kAdd>{});
    case B::kSub: return fn(Bin<B::kSub>{});
    case B::kMul: return fn(Bin<B::kMul>{});
    case B::kDiv: return fn(Bin<B::kDiv>{});
    case B::kMin: return fn(Bin<B::kMin>{});
    case B::kMax: return fn(Bin<B::kMax>{});
    case B::kPow: return fn(Bin<B::kPow>{});
    case B::kLt: return fn(Bin<B::kLt>{});
    case B::kLe: return fn(Bin<B::kLe>{});
    case B::kGt: return fn(Bin<B::kGt>{});
    case B::kGe: return fn(Bin<B::kGe>{});
    case B::kEq: return fn(Bin<B::kEq>{});
    case B::kNe: return fn(Bin<B::kNe>{});
    case B::kAnd: return fn(Bin<B::kAnd>{});
    case B::kOr: return fn(Bin<B::kOr>{});
  }
  ZC_ASSERT(false);
}

template <class Fn>
void with_un(zir::UnOp op, Fn&& fn) {
  using U = zir::UnOp;
  switch (op) {
    case U::kNeg: return fn(Un<U::kNeg>{});
    case U::kNot: return fn(Un<U::kNot>{});
    case U::kAbs: return fn(Un<U::kAbs>{});
    case U::kSqrt: return fn(Un<U::kSqrt>{});
    case U::kExp: return fn(Un<U::kExp>{});
    case U::kLog: return fn(Un<U::kLog>{});
    case U::kSin: return fn(Un<U::kSin>{});
    case U::kCos: return fn(Un<U::kCos>{});
  }
  ZC_ASSERT(false);
}

void copy_rows(const Shape& sh, const View& from, const Dest& to) {
  for_rows(sh, [&](long long i, long long j) {
    const double* x = row(from, i, j);
    std::copy(x, x + sh.n2, row(to, i, j));
  });
}

}  // namespace

ExprProg compile_expr(const zir::Program& program, zir::ExprId id) {
  return ExprCompiler(program).compile(id);
}

bool last_step_reads_shifted(const zir::Program& program, zir::ExprId rhs, zir::ArrayId array) {
  // The last step is the root node; its operands are the root's children.
  const auto reads_shifted = [&](zir::ExprId id) {
    const zir::Expr& e = program.expr(id);
    if (e.kind != zir::Expr::Kind::kShift || e.array != array) return false;
    const std::vector<int>& offsets = program.direction(e.direction).offsets;
    return std::any_of(offsets.begin(), offsets.end(), [](int o) { return o != 0; });
  };
  const zir::Expr& root = program.expr(rhs);
  switch (root.kind) {
    case zir::Expr::Kind::kShift: return reads_shifted(rhs);
    case zir::Expr::Kind::kBinary: return reads_shifted(root.lhs) || reads_shifted(root.rhs);
    case zir::Expr::Kind::kUnary: return reads_shifted(root.lhs);
    default: return false;
  }
}

long long resolve_load(const ExprLoad& ld, const zir::Program& program, const rt::LocalArray& a,
                       const rt::Box& box) {
  rt::Box need = box;
  for (int d = 0; d < need.rank; ++d) {
    need.lo[d] += ld.offsets[d];
    need.hi[d] += ld.offsets[d];
  }
  const long long offset = a.offset_of(need);
  if (offset < 0) {
    throw rt::uncovered_read_error(program.array(zir::ArrayId(ld.array)).name, ld.shifted, need,
                                   a.storage_box());
  }
  return offset;
}

View view_at(const rt::LocalArray& a, long long offset) {
  const int rank = a.storage_box().rank;
  return {a.data() + offset, rank == 3 ? a.stride(0) : 0,
          rank == 3 ? a.stride(1) : rank == 2 ? a.stride(0) : 0};
}

Dest dest_at(rt::LocalArray& a, long long offset) {
  const View v = view_at(a, offset);
  return {a.data() + offset, v.s0, v.s1};
}

void resolve_views(const ExprProg& prog, const zir::Program& program,
                   const std::vector<rt::LocalArray>& arrays, const rt::Box& box,
                   std::vector<View>& views) {
  views.resize(prog.loads.size());
  for (std::size_t k = 0; k < prog.loads.size(); ++k) {
    const rt::LocalArray& a = arrays[static_cast<std::size_t>(prog.loads[k].array)];
    views[k] = view_at(a, resolve_load(prog.loads[k], program, a, box));
  }
}

View eval_expr_prog(const ExprProg& prog, const rt::Box& box, const View* loads,
                    const std::vector<double>& scalars, const zir::IntEnv& env,
                    ExprScratch& scratch, const Dest* dest, bool via_temp) {
  const Shape sh = shape_of(box);
  const std::size_t n = static_cast<std::size_t>(sh.n0 * sh.n1 * sh.n2);
  const std::size_t depth = static_cast<std::size_t>(std::max(prog.max_vdepth, 1));
  if (scratch.temps.size() < depth) scratch.temps.resize(depth);
  if (scratch.vstack.size() < depth) scratch.vstack.resize(depth);
  View* vs = scratch.vstack.data();
  auto& ss = scratch.sstack;
  ss.clear();
  int vd = 0;
  std::size_t next_load = 0;

  // Temporaries are contiguous rows of the box. A temporary at stack depth
  // k lives in temps[k], so a step whose result lands at depth k writes in
  // place exactly when its left operand is already a temporary.
  const auto temp = [&](int k) -> Dest {
    std::vector<double>& buf = scratch.temps[static_cast<std::size_t>(k)];
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), sh.n1 * sh.n2, sh.n2};
  };
  const Dest* last_dest = via_temp ? nullptr : dest;
  const ExprStep* last = &prog.steps.back();
  // Where the result of step `st`, landing at stack depth k, goes.
  const auto target = [&](const ExprStep& st, int k) -> Dest {
    return &st == last && last_dest != nullptr ? *last_dest : temp(k);
  };

  for (const ExprStep& st : prog.steps) {
    switch (st.op) {
      case ExprStep::Op::kConstS:
        ss.push_back(st.value);
        break;
      case ExprStep::Op::kScalarS:
        ss.push_back(scalars[static_cast<std::size_t>(st.a)]);
        break;
      case ExprStep::Op::kLoopVarS:
        ZC_ASSERT(env.loop_bound[static_cast<std::size_t>(st.a)]);
        ss.push_back(static_cast<double>(env.loop_values[static_cast<std::size_t>(st.a)]));
        break;
      case ExprStep::Op::kConfigS:
        ss.push_back(static_cast<double>(env.config_values[static_cast<std::size_t>(st.a)]));
        break;
      case ExprStep::Op::kBinSS: {
        const double b = ss.back();
        ss.pop_back();
        ss.back() = rt::apply_bin(st.bin_op, ss.back(), b);
        break;
      }
      case ExprStep::Op::kUnS:
        ss.back() = rt::apply_un(st.un_op, ss.back());
        break;
      case ExprStep::Op::kLoad:
        vs[vd++] = loads[next_load++];
        break;
      case ExprStep::Op::kLoadIndex: {
        const int dim = st.a - 1;
        ZC_ASSERT(dim >= 0 && dim < box.rank);
        const Dest d = target(st, vd);
        const int pos = dim + 3 - box.rank;  // 0, 1 or 2: which of (i, j, k)
        const long long lo = box.lo[dim];
        for_rows(sh, [&](long long i, long long j) {
          double* o = row(d, i, j);
          if (pos == 2) {
            for (long long k = 0; k < sh.n2; ++k) o[k] = static_cast<double>(lo + k);
          } else {
            std::fill(o, o + sh.n2, static_cast<double>(lo + (pos == 0 ? i : j)));
          }
        });
        vs[vd++] = as_view(d);
        break;
      }
      case ExprStep::Op::kBinVV: {
        const View l = vs[vd - 2];
        const View r = vs[vd - 1];
        const Dest d = target(st, vd - 2);
        with_bin(st.bin_op, [&](auto f) {
          for_rows(sh, [&](long long i, long long j) {
            double* o = row(d, i, j);
            const double* x = row(l, i, j);
            const double* y = row(r, i, j);
            for (long long k = 0; k < sh.n2; ++k) o[k] = f(x[k], y[k]);
          });
        });
        vs[vd - 2] = as_view(d);
        --vd;
        break;
      }
      case ExprStep::Op::kBinVS: {
        const double b = ss.back();
        ss.pop_back();
        const View l = vs[vd - 1];
        const Dest d = target(st, vd - 1);
        with_bin(st.bin_op, [&](auto f) {
          for_rows(sh, [&](long long i, long long j) {
            double* o = row(d, i, j);
            const double* x = row(l, i, j);
            for (long long k = 0; k < sh.n2; ++k) o[k] = f(x[k], b);
          });
        });
        vs[vd - 1] = as_view(d);
        break;
      }
      case ExprStep::Op::kBinSV: {
        const double a = ss.back();
        ss.pop_back();
        const View r = vs[vd - 1];
        const Dest d = target(st, vd - 1);
        with_bin(st.bin_op, [&](auto f) {
          for_rows(sh, [&](long long i, long long j) {
            double* o = row(d, i, j);
            const double* y = row(r, i, j);
            for (long long k = 0; k < sh.n2; ++k) o[k] = f(a, y[k]);
          });
        });
        vs[vd - 1] = as_view(d);
        break;
      }
      case ExprStep::Op::kUnV: {
        const View l = vs[vd - 1];
        const Dest d = target(st, vd - 1);
        with_un(st.un_op, [&](auto f) {
          for_rows(sh, [&](long long i, long long j) {
            double* o = row(d, i, j);
            const double* x = row(l, i, j);
            for (long long k = 0; k < sh.n2; ++k) o[k] = f(x[k]);
          });
        });
        vs[vd - 1] = as_view(d);
        break;
      }
    }
  }

  if (!prog.is_vec) {
    ZC_ASSERT(vd == 0 && ss.size() == 1);
    const Dest d = dest != nullptr ? *dest : temp(0);
    const double v = ss.back();
    for_rows(sh, [&](long long i, long long j) {
      double* o = row(d, i, j);
      std::fill(o, o + sh.n2, v);
    });
    return as_view(d);
  }
  ZC_ASSERT(vd == 1 && ss.empty());
  View result = vs[0];
  if (dest == nullptr || result.base == dest->base) return result;
  if (via_temp && last->op == ExprStep::Op::kLoad) {
    // A bare shifted load of the destination itself: stage it.
    const Dest t = temp(0);
    copy_rows(sh, result, t);
    result = as_view(t);
  }
  copy_rows(sh, result, *dest);
  return as_view(*dest);
}

double fold_view(zir::ReduceOp op, const rt::Box& box, const View& values) {
  const Shape sh = shape_of(box);
  double acc = rt::reduce_identity(op);
  for_rows(sh, [&](long long i, long long j) {
    const double* x = row(values, i, j);
    for (long long k = 0; k < sh.n2; ++k) acc = rt::reduce_combine(op, acc, x[k]);
  });
  return acc;
}

// ---------------------------------------------------------------------------
// Statement lowering.

namespace {

class Lowerer {
 public:
  Lowerer(const zir::Program& program, const comm::CommPlan& plan, const zir::IntEnv& env,
          const machine::MachineModel& machine)
      : p_(program), plan_(plan), env_(env), machine_(machine) {}

  CompiledSim lower() {
    lower_body(p_.proc(p_.entry()).body);
    emit(Inst::Op::kHalt);
    return std::move(sim_);
  }

 private:
  std::int32_t emit(Inst::Op op, std::int32_t a = 0, std::int32_t b = 0) {
    sim_.code.push_back(Inst{op, a, b});
    return static_cast<std::int32_t>(sim_.code.size()) - 1;
  }

  void lower_body(const std::vector<zir::StmtId>& body) {
    std::size_t i = 0;
    while (i < body.size()) {
      const zir::Stmt& s = p_.stmt(body[i]);
      if (s.kind == zir::Stmt::Kind::kArrayAssign || s.kind == zir::Stmt::Kind::kScalarAssign) {
        const comm::BlockPlan* bp = plan_.find_block(body[i]);
        ZC_ASSERT(bp != nullptr);  // every assign run starts a planned block
        lower_block(*bp);
        i += bp->stmts.size();
        continue;
      }
      lower_stmt(body[i]);
      ++i;
    }
  }

  void lower_block(const comm::BlockPlan& block) {
    // One CompiledGroup per (lowering site, group): caches are per site, but
    // group/transfer ids — all the transport and trace see — are the plan's.
    std::vector<std::int32_t> gidx;
    gidx.reserve(block.groups.size());
    for (const comm::CommGroup& g : block.groups) {
      gidx.push_back(lower_group(block, g));
    }
    // Call-slot order at each insertion point matches the reference
    // interpreter's: DR then SR, then DN then SV, in group order.
    const int n = static_cast<int>(block.stmts.size());
    for (int pos = 0; pos <= n; ++pos) {
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].dr_pos == pos) emit(Inst::Op::kCommDR, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].sr_pos == pos) emit(Inst::Op::kCommSR, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].dn_pos == pos) emit(Inst::Op::kCommDN, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].sv_pos == pos) emit(Inst::Op::kCommSV, gidx[k]);
      }
      if (pos < n) lower_stmt(block.stmts[pos]);
    }
  }

  std::int32_t lower_group(const comm::BlockPlan& block, const comm::CommGroup& g) {
    CompiledGroup cg;
    cg.group = &g;
    for (const comm::Member& m : g.members) {
      const zir::Stmt& use = p_.stmt(block.stmts[m.use_stmt]);
      ZC_ASSERT(use.region.has_value());
      CompiledGroup::MemberSpec spec;
      spec.array = m.array.index();
      spec.region = &*use.region;
      spec.is_static = use.region->is_static();
      if (spec.is_static) spec.static_box = rt::eval_region(*use.region, env_);
      cg.all_static = cg.all_static && spec.is_static;
      cg.members.push_back(std::move(spec));
    }
    sim_.groups.push_back(std::move(cg));
    return static_cast<std::int32_t>(sim_.groups.size()) - 1;
  }

  /// The cost-model metadata per statement, folded with the exact
  /// expression shape of the reference interpreter's charge_compute.
  double per_elem_cost(zir::ExprId rhs) const {
    const int flops = zir::count_flops(p_, rhs);
    const int arrays_touched = static_cast<int>(zir::collect_arrays_read(p_, rhs).size()) + 1;
    return flops * machine_.flop_time + arrays_touched * machine_.elem_mem_time;
  }

  void lower_stmt(zir::StmtId sid) {
    const zir::Stmt& s = p_.stmt(sid);
    switch (s.kind) {
      case zir::Stmt::Kind::kArrayAssign: {
        CompiledAssign ca;
        ca.stmt = &s;
        ca.lhs_array = s.lhs_array.index();
        ca.rhs = compile_expr(p_, s.rhs);
        ca.via_temp = last_step_reads_shifted(p_, s.rhs, s.lhs_array);
        ca.per_elem_cost = per_elem_cost(s.rhs);
        ZC_ASSERT(s.region.has_value());
        ca.region_static = s.region->is_static();
        if (ca.region_static) ca.static_box = rt::eval_region(*s.region, env_);
        sim_.assigns.push_back(std::move(ca));
        emit(Inst::Op::kAssign, static_cast<std::int32_t>(sim_.assigns.size()) - 1);
        return;
      }
      case zir::Stmt::Kind::kScalarAssign: {
        const std::vector<zir::ExprId> reduce_nodes = zir::collect_reduce_exprs(p_, s.rhs);
        if (reduce_nodes.empty()) {
          sim_.scalar_stmts.push_back(CompiledScalarStmt{&s});
          emit(Inst::Op::kScalar, static_cast<std::int32_t>(sim_.scalar_stmts.size()) - 1);
          return;
        }
        CompiledReduce cr;
        cr.stmt = &s;
        for (const zir::ExprId node : reduce_nodes) {
          cr.ops.push_back(p_.expr(node).reduce_op);
          cr.operands.push_back(compile_expr(p_, p_.expr(node).lhs));
        }
        cr.per_elem_cost = per_elem_cost(s.rhs);
        ZC_ASSERT(s.region.has_value());
        cr.region_static = s.region->is_static();
        if (cr.region_static) cr.static_box = rt::eval_region(*s.region, env_);
        sim_.reduces.push_back(std::move(cr));
        emit(Inst::Op::kReduce, static_cast<std::int32_t>(sim_.reduces.size()) - 1);
        return;
      }
      case zir::Stmt::Kind::kFor: {
        sim_.loops.push_back(CompiledLoop{&s});
        const std::int32_t li = static_cast<std::int32_t>(sim_.loops.size()) - 1;
        const std::int32_t init_pc = emit(Inst::Op::kForInit, li);
        const std::int32_t body_pc = static_cast<std::int32_t>(sim_.code.size());
        lower_body(s.body);
        emit(Inst::Op::kForNext, li, body_pc);
        sim_.code[static_cast<std::size_t>(init_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        return;
      }
      case zir::Stmt::Kind::kIf: {
        sim_.ifs.push_back(CompiledIf{&s});
        const std::int32_t ii = static_cast<std::int32_t>(sim_.ifs.size()) - 1;
        const std::int32_t if_pc = emit(Inst::Op::kIf, ii);
        lower_body(s.body);
        const std::int32_t jump_pc = emit(Inst::Op::kJump);
        sim_.code[static_cast<std::size_t>(if_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        lower_body(s.else_body);
        sim_.code[static_cast<std::size_t>(jump_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        return;
      }
      case zir::Stmt::Kind::kCall:
        // Inlined: validation guarantees no recursion, and the reference
        // interpreter executes the callee body in place exactly like this.
        lower_body(p_.proc(s.callee).body);
        return;
    }
  }

  const zir::Program& p_;
  const comm::CommPlan& plan_;
  const zir::IntEnv& env_;
  const machine::MachineModel& machine_;
  CompiledSim sim_;
};

}  // namespace

CompiledSim compile_sim(const zir::Program& program, const comm::CommPlan& plan,
                        const zir::IntEnv& env, const machine::MachineModel& machine) {
  return Lowerer(program, plan, env, machine).lower();
}

}  // namespace zc::sim
