//! The request pipeline: [`DistGraphComm::collective`] resolves a
//! request's plan and hands it to [`DistGraphComm::collective_on`], the
//! one execution path of every op on every backend — the `Sim` backend
//! is the `Virtual` byte path plus one simulated request, which
//! [`DistGraphComm::simulate_on`] serves alone.

use super::{CommError, DistGraphComm, Entry};
use crate::arena::BlockArena;
use crate::collective::program::{Checked, Shape};
use crate::collective::{
    check_support, derive_sizes, CollectiveOp, CollectiveOutput, CollectiveRequest, ExecBackend,
};
use crate::exec::sim_exec::{simulate_kept, Priced, SimCost};
use crate::exec::{execute, ExecOptions};
use crate::plan::CollectivePlan;
use crate::runtime::Clock;
use crate::sizes::BlockSizes;
use nhood_simnet::{Perturbation, SimReport};
use std::sync::Arc;

impl DistGraphComm {
    /// Runs any neighborhood collective from one typed request.
    ///
    /// Every op plans through the one [`crate::plan::CollectivePlan`],
    /// under every algorithm, and executes the program the engine
    /// compiles from it: the allgather family the plan's block messages,
    /// the combining family — alltoallv, sparse reduce_scatter, sparse
    /// allreduce — the item routing the plan implies
    /// ([`crate::alltoall`]) with reducing agents; PAT's reduce ops, and
    /// the leader hierarchy's where two of a node's leader slots share a
    /// rank, are the algorithm refusals. Robust, fault-injected execution
    /// serves every op on the threaded backend. On [`ExecBackend::Sim`]
    /// the output carries **both** real oracle bytes and the simulator's
    /// makespan (under [`SimCost::niagara`]); [`Self::simulate_on`]
    /// prices the request alone, at any cost, moving no byte.
    ///
    /// Combinations outside the support matrix return
    /// [`CommError::UnsupportedCollective`] /
    /// [`CommError::InvalidReduction`] before any work happens.
    pub fn collective(&self, req: &CollectiveRequest) -> Result<CollectiveOutput, CommError> {
        let mut arena = std::mem::take(&mut *self.arena.lock().expect("arena poisoned"));
        let out = self.collective_on(req, None, &mut arena);
        *self.arena.lock().expect("arena poisoned") = arena;
        out
    }

    /// [`Self::collective`] on a workspace the caller keeps — its
    /// compiled programs, offset tables and
    /// [adopted](BlockArena::adopt_rbufs) receive buffers carry over from
    /// request to request — and, with `plan`, over a plan the caller has
    /// already resolved (one fetch for a whole batch, checked once; `None`
    /// resolves it per request, as `collective` does). A robust request
    /// negotiates its own plan and ignores `plan`.
    pub fn collective_on(
        &self,
        req: &CollectiveRequest,
        plan: Option<&Arc<CollectivePlan>>,
        arena: &mut BlockArena,
    ) -> Result<CollectiveOutput, CommError> {
        check_support(req.op, req.algorithm, req.robust, req.backend, self)?;
        let sizes = self.request_sizes(req)?;
        if req.robust {
            // check_support pinned the backend to Threaded already.
            return self.robust(req, sizes.as_ref(), arena);
        }
        let plan = self.resolve_plan(req, plan, arena)?;
        let threaded = req.backend == ExecBackend::Threaded;
        let base = ExecOptions::new().recorder(req.recorder);
        let opts = if threaded { self.threaded_opts(base) } else { base };
        let (graph, sbufs) = (&self.graph, req.payloads);
        let clock = threaded.then_some(Clock::Wall);
        let out = execute(req.op, sizes.as_ref(), &plan, graph, sbufs, arena, clock, &opts)?;
        let sim = match req.backend {
            ExecBackend::Sim => {
                Some(self.simulate_on(req, Some(&plan.plan), arena, &SimCost::niagara(), None)?)
            }
            _ => None,
        };
        Ok(CollectiveOutput { rbufs: out.rbufs, faults: out.faults, report: None, sim })
    }

    /// Simulates `req` at `cost`, under an optional latency
    /// `perturbation`, moving no byte: the makespan `collective_on`
    /// reports on [`ExecBackend::Sim`] at [`SimCost::niagara`]. A gather
    /// simulates its plan at the payloads' lengths, a combining op its
    /// compiled program at combined wire sizes. `plan` and `arena` are
    /// `collective_on`'s; the arena keeps the schedule's prepared
    /// structure beside the programs, so a repeated request of one plan
    /// writes only its prices and replays (`docs/EXECUTION_API.md`). The
    /// request's backend and robustness are not read.
    pub fn simulate_on(
        &self,
        req: &CollectiveRequest,
        plan: Option<&Arc<CollectivePlan>>,
        arena: &mut BlockArena,
        cost: &SimCost,
        perturbation: Option<&Perturbation>,
    ) -> Result<SimReport, CommError> {
        check_support(req.op, req.algorithm, false, ExecBackend::Sim, self)?;
        let sizes = self.request_sizes(req)?;
        let plan = self.resolve_plan(req, plan, arena)?;
        let graph = &self.graph;
        let sizes = match &sizes {
            None => Priced::Gather(&req.payloads.iter().map(Vec::len).collect::<Vec<_>>()),
            Some(sizes) => {
                Priced::Program(&*arena.program(&plan, graph, Shape::of(req.op))?, sizes)
            }
        };
        Ok(simulate_kept(arena, &plan, graph, &self.layout, cost, sizes, perturbation)?)
    }

    /// A combining op's validated size table; a gather reads its block
    /// lengths off the payloads.
    fn request_sizes(&self, req: &CollectiveRequest) -> Result<Option<BlockSizes>, CommError> {
        let sizes = || derive_sizes(&self.graph, req.op, req.payloads, req.sizes.as_ref());
        (!req.op.is_gather()).then(sizes).transpose()
    }

    /// The cell of `plan` (the memo's, the arena's or a new one), or of the
    /// one lookup's ([`Self::plan_shared`]'s) plan for a non-robust request.
    /// The allgather family's is sized by the request (an explicit table,
    /// the pinned one, or — for allgatherv — the payloads' own lengths).
    /// The combining family executes the item routing of a gather plan
    /// (alltoallv, reduce_scatter and allreduce all route identically)
    /// negotiated at default sizes whatever table is pinned: a pinned table
    /// sizes gather blocks, the combining ops size theirs per request. On
    /// uniform sizes both load metrics order candidates alike, so the
    /// routes are [`LoadMetric::Neighbors`]'s, and under that metric they
    /// share the gathers' memo entry.
    ///
    /// [`LoadMetric::Neighbors`]: crate::sizes::LoadMetric::Neighbors
    fn resolve_plan(
        &self,
        req: &CollectiveRequest,
        plan: Option<&Arc<CollectivePlan>>,
        arena: &BlockArena,
    ) -> Result<Arc<Checked>, CommError> {
        if let Some(plan) = plan {
            let entry = |e: &&Entry| Arc::ptr_eq(&e.plan.plan, plan);
            let memo = self.memo().plans.iter().find(entry).map(|e| Arc::clone(&e.plan));
            return Ok(memo.unwrap_or_else(|| arena.cell(plan, &self.graph)));
        }
        if !req.op.is_gather() {
            let algo = self.combining_algorithm(req.algorithm)?;
            return self.plan_shared_sized(algo, &BlockSizes::default(), req.recorder);
        }
        let sizes = match (&req.sizes, req.op) {
            (Some(s), _) => s.clone(),
            (None, CollectiveOp::Allgatherv) => {
                self.sizes.clone().unwrap_or_else(|| BlockSizes::from_payloads(req.payloads))
            }
            (None, _) => self.planning_sizes(),
        };
        self.plan_shared_sized(req.algorithm, &sizes, req.recorder)
    }
}
