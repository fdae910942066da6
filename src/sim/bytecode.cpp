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
  /// the recursive evaluator, so side effects — the out-of-bounds shift
  /// throw — fire at the same point.
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
        st.op = ExprStep::Op::kLoadArray;
        st.a = e.array.index();
        prog_.steps.push_back(st);
        push_vec();
        return true;
      case zir::Expr::Kind::kShift:
        st.op = ExprStep::Op::kLoadShift;
        st.a = e.array.index();
        st.b = e.direction.index();
        prog_.steps.push_back(st);
        push_vec();
        return true;
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

}  // namespace

ExprProg compile_expr(const zir::Program& program, zir::ExprId id) {
  return ExprCompiler(program).compile(id);
}

const std::vector<double>& eval_expr_prog(const ExprProg& prog, const zir::Program& program,
                                          const std::vector<rt::LocalArray>& arrays,
                                          const std::vector<double>& scalars,
                                          const zir::IntEnv& env, const rt::Box& box,
                                          ExprScratch& scratch) {
  const std::size_t n = static_cast<std::size_t>(box.count());
  auto& vb = scratch.vbufs;
  if (vb.size() < static_cast<std::size_t>(std::max(prog.max_vdepth, 1))) {
    vb.resize(static_cast<std::size_t>(std::max(prog.max_vdepth, 1)));
  }
  auto& ss = scratch.sstack;
  ss.clear();
  int vd = 0;

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
      case ExprStep::Op::kLoadArray: {
        std::vector<double>& buf = vb[static_cast<std::size_t>(vd++)];
        buf.resize(n);
        const rt::LocalArray& a = arrays[static_cast<std::size_t>(st.a)];
        ZC_ASSERT(a.covers(box));
        a.read_box(box, buf.data());
        break;
      }
      case ExprStep::Op::kLoadShift: {
        std::vector<double>& buf = vb[static_cast<std::size_t>(vd++)];
        buf.resize(n);
        const rt::LocalArray& a = arrays[static_cast<std::size_t>(st.a)];
        const rt::Box src =
            box.shifted(program.direction(zir::DirectionId(st.b)).offsets);
        if (!a.covers(src)) {
          throw Error("shifted read of '" + program.array(zir::ArrayId(st.a)).name +
                      "' outside its declared region (program reads past its border): need " +
                      src.to_string() + ", have " + a.storage_box().to_string());
        }
        a.read_box(src, buf.data());
        break;
      }
      case ExprStep::Op::kLoadIndex: {
        std::vector<double>& buf = vb[static_cast<std::size_t>(vd++)];
        buf.resize(n);
        const int dim = st.a - 1;
        ZC_ASSERT(dim >= 0 && dim < box.rank);
        std::size_t k = 0;
        const rt::Box& b = box;
        const long long j_lo = b.rank >= 2 ? b.lo[1] : 0;
        const long long j_hi = b.rank >= 2 ? b.hi[1] : 0;
        const long long k_lo = b.rank >= 3 ? b.lo[2] : 0;
        const long long k_hi = b.rank >= 3 ? b.hi[2] : 0;
        for (long long i = b.lo[0]; i <= b.hi[0]; ++i) {
          for (long long j = j_lo; j <= j_hi; ++j) {
            for (long long kk = k_lo; kk <= k_hi; ++kk) {
              const long long coord = dim == 0 ? i : dim == 1 ? j : kk;
              buf[k++] = static_cast<double>(coord);
            }
          }
        }
        break;
      }
      case ExprStep::Op::kBinVV: {
        std::vector<double>& l = vb[static_cast<std::size_t>(vd - 2)];
        const std::vector<double>& r = vb[static_cast<std::size_t>(vd - 1)];
        for (std::size_t i = 0; i < n; ++i) l[i] = rt::apply_bin(st.bin_op, l[i], r[i]);
        --vd;
        break;
      }
      case ExprStep::Op::kBinVS: {
        const double b = ss.back();
        ss.pop_back();
        std::vector<double>& l = vb[static_cast<std::size_t>(vd - 1)];
        for (std::size_t i = 0; i < n; ++i) l[i] = rt::apply_bin(st.bin_op, l[i], b);
        break;
      }
      case ExprStep::Op::kBinSV: {
        const double a = ss.back();
        ss.pop_back();
        std::vector<double>& r = vb[static_cast<std::size_t>(vd - 1)];
        for (std::size_t i = 0; i < n; ++i) r[i] = rt::apply_bin(st.bin_op, a, r[i]);
        break;
      }
      case ExprStep::Op::kUnV: {
        std::vector<double>& l = vb[static_cast<std::size_t>(vd - 1)];
        for (std::size_t i = 0; i < n; ++i) l[i] = rt::apply_un(st.un_op, l[i]);
        break;
      }
    }
  }

  if (prog.is_vec) {
    ZC_ASSERT(vd == 1 && ss.empty());
    return vb[0];
  }
  ZC_ASSERT(vd == 0 && ss.size() == 1);
  vb[0].assign(n, ss.back());
  return vb[0];
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
