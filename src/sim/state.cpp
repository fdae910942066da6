#include "src/sim/state.h"

#include <algorithm>

#include "src/prof/prof.h"
#include "src/support/check.h"
#include "src/support/diag.h"
#include "src/support/metrics.h"
#include "src/tseries/tseries.h"

namespace zc::sim {

namespace {

zir::IntEnv make_env(const zir::Program& p, const std::map<std::string, long long>& overrides) {
  zir::IntEnv env = p.default_env();
  for (const auto& [name, value] : overrides) {
    const zir::ConfigId id = p.find_config(name);
    if (!id.valid()) throw Error("config override for unknown config '" + name + "'");
    env.config_values[id.index()] = value;
  }
  return env;
}

rt::Mesh make_mesh(const zir::Program& p, int procs) {
  if (procs < 1) throw Error("processor count must be >= 1");
  if (p.rank() <= 1) return rt::Mesh{procs, 1};
  return rt::Mesh::near_square(procs);
}

}  // namespace

SimState::SimState(const zir::Program& prog, const comm::CommPlan& comm_plan,
                   RunConfig run_config)
    : program(prog),
      plan(comm_plan),
      config(std::move(run_config)),
      mesh(make_mesh(prog, config.procs)),
      env(make_env(prog, config.config_overrides)),
      dist(prog, env, mesh),
      transport(config.machine, config.library),
      evaluator(prog) {
  if (config.recorder != nullptr) {
    ZC_ASSERT(config.recorder->procs() >= mesh.procs());
    transport.set_recorder(config.recorder);
    // Register human-readable labels for every group's transfer id up front
    // so exporters / analysis can name spans without the plan in hand.
    for (const comm::BlockPlan& block : plan.blocks) {
      for (const comm::CommGroup& group : block.groups) {
        std::string label;
        for (const comm::Member& m : group.members) {
          if (!label.empty()) label += "+";
          label += program.array(m.array).name;
        }
        label += "@";
        label += program.direction(group.direction).name;
        config.recorder->set_transfer_label(group.transfer_id, std::move(label));
      }
    }
  }
  if (config.timeline != nullptr) {
    ZC_ASSERT(config.timeline->procs() >= mesh.procs());
    transport.set_timeline(config.timeline);
  }
  ZC_PROF_SPAN("sim/alloc");
  const int procs = mesh.procs();
  clocks.assign(procs, 0.0);
  counters.assign(procs, CommCounters{});
  scalars.assign(program.scalar_count(), 0.0);

  declared.resize(program.array_count());
  const auto fluff = rt::fluff_widths(program);
  arrays.resize(procs);
  for (int proc = 0; proc < procs; ++proc) arrays[proc].resize(program.array_count());
  for (std::size_t a = 0; a < program.array_count(); ++a) {
    const zir::ArrayDecl& decl = program.array(zir::ArrayId(static_cast<int32_t>(a)));
    declared[a] = rt::eval_region(program.region(decl.region).spec, env);
    for (int proc = 0; proc < procs; ++proc) {
      rt::Box owned = dist.owned(proc);
      // Clamp ownership to the array's declared region; dim 2 (if any) of
      // the declared region is whole on every processor.
      rt::Box my = owned;
      my.rank = declared[a].rank;
      for (int d = 0; d < my.rank; ++d) {
        if (d < 2) {
          my.lo[d] = std::max(owned.lo[d], declared[a].lo[d]);
          my.hi[d] = std::min(owned.hi[d], declared[a].hi[d]);
        } else {
          my.lo[d] = declared[a].lo[d];
          my.hi[d] = declared[a].hi[d];
        }
      }
      arrays[proc][a] = rt::LocalArray(my, declared[a], fluff);
    }
  }
  if (prof::enabled()) {
    long long array_bytes = 0;
    for (const std::vector<rt::LocalArray>& per_proc : arrays) {
      for (const rt::LocalArray& la : per_proc) {
        array_bytes += static_cast<long long>(la.allocation_size() * sizeof(double));
      }
    }
    prof::add_bytes(array_bytes);
  }
}

rt::EvalContext SimState::context_for(int proc) const {
  rt::EvalContext ctx;
  ctx.program = &program;
  ctx.arrays = &arrays[proc];
  ctx.scalars = &scalars;
  ctx.env = &env;
  return ctx;
}

void SimState::allreduce_clocks(double extra_per_stage) {
  const int stages = machine::barrier_stages(mesh.procs());
  double t = 0.0;
  for (double c : clocks) t = std::max(t, c);
  t += stages * (extra_per_stage + config.machine.wire_latency);
  if (config.recorder != nullptr) {
    for (std::size_t p = 0; p < clocks.size(); ++p) {
      config.recorder->record_barrier(static_cast<int>(p), clocks[p], t);
    }
  }
  if (config.timeline != nullptr) {
    for (std::size_t p = 0; p < clocks.size(); ++p) {
      config.timeline->add_barrier(static_cast<int>(p), clocks[p], t);
    }
  }
  std::fill(clocks.begin(), clocks.end(), t);
}

RunResult SimState::finish() const {
  RunResult r;
  r.mesh = mesh;
  r.center_proc = mesh.center_rank();
  r.elapsed_seconds = *std::max_element(clocks.begin(), clocks.end());
  r.per_proc = counters;
  r.dynamic_count = dynamic_count;
  for (const CommCounters& c : counters) {
    r.total_messages += c.messages_sent;
    r.total_bytes += c.bytes_sent;
  }
  r.reduction_count = reduction_count;
  for (std::size_t s = 0; s < program.scalar_count(); ++s) {
    r.scalars[program.scalar(zir::ScalarId(static_cast<int32_t>(s))).name] = scalars[s];
  }
  // Checksums: sum over each array's declared region (owned parts only, so
  // every element is counted exactly once).
  std::vector<double> buf;
  for (std::size_t a = 0; a < program.array_count(); ++a) {
    double sum = 0.0;
    for (int proc = 0; proc < mesh.procs(); ++proc) {
      const rt::LocalArray& la = arrays[proc][a];
      if (la.owned().empty()) continue;
      buf.resize(static_cast<std::size_t>(la.owned().count()));
      la.read_box(la.owned(), buf.data());
      for (double x : buf) sum += x;
    }
    r.checksums[program.array(zir::ArrayId(static_cast<int32_t>(a))).name] = sum;
  }

  // Published once per run (never per message) — see src/support/metrics.h.
  auto& reg = metrics::Registry::current();
  reg.count("sim.runs");
  reg.count("sim.communications", r.dynamic_count);
  reg.count("sim.messages", r.total_messages);
  reg.count("sim.bytes", r.total_bytes);
  reg.count("sim.reductions", r.reduction_count);
  reg.gauge("sim.last_elapsed_seconds", r.elapsed_seconds);
  reg.gauge("sim.last_procs", static_cast<double>(mesh.procs()));
  return r;
}

}  // namespace zc::sim
