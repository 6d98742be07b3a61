//! The request pipeline: [`DistGraphComm::collective`] and the backends
//! of its two engines over the one plan IR. Each engine matches on the
//! backend once — the `Sim` backend is the `Virtual` byte path plus one
//! simulated schedule.

use super::{CombineMemo, CommError, DistGraphComm};
use crate::arena::BlockArena;
use crate::collective::program::{
    run_combining_threaded, run_combining_virtual, CombineOp, CombineProgram, CombineScratch,
};
use crate::collective::{
    check_support, derive_sizes, CollectiveOp, CollectiveOutput, CollectiveRequest, ExecBackend,
};
use crate::exec::sim_exec::{simulate_v, SimCost};
use crate::exec::{ExecOptions, Executor, Threaded, Virtual};
use crate::sizes::BlockSizes;
use nhood_simnet::Engine;
use std::sync::MutexGuard;

impl DistGraphComm {
    /// Runs any neighborhood collective from one typed request.
    ///
    /// Every op plans through the one [`crate::plan::CollectivePlan`],
    /// under every algorithm. The allgather family executes its block
    /// messages (robust + fault-injected execution on the threaded
    /// backend). The combining family — alltoallv, sparse reduce_scatter,
    /// sparse allreduce — executes the item routing the plan implies
    /// ([`crate::alltoall`]) with reducing agents; PAT's reduce ops are
    /// the one algorithm refusal. On [`ExecBackend::Sim`] the output
    /// carries **both** real oracle bytes and the simulator's makespan
    /// (under [`SimCost::niagara`]); the bare [`crate::exec::Sim`]
    /// executor returns empty buffers.
    ///
    /// Combinations outside the support matrix return
    /// [`CommError::UnsupportedCollective`] /
    /// [`CommError::InvalidReduction`] before any work happens.
    pub fn collective(&self, req: &CollectiveRequest) -> Result<CollectiveOutput, CommError> {
        check_support(req.op, req.algorithm, req.robust, req.backend)?;
        if req.op.is_gather() {
            self.gather_collective(req)
        } else {
            self.combining_collective(req)
        }
    }

    /// The allgather-family half of [`Self::collective`].
    fn gather_collective(&self, req: &CollectiveRequest) -> Result<CollectiveOutput, CommError> {
        if req.robust {
            // check_support pinned the backend to Threaded already.
            return self.robust_gather(req);
        }
        let ragged = req.op == CollectiveOp::Allgatherv;
        let sizes = match (&req.sizes, ragged) {
            (Some(s), _) => s.clone(),
            (None, true) => {
                self.sizes.clone().unwrap_or_else(|| BlockSizes::from_payloads(req.payloads))
            }
            (None, false) => self.planning_sizes(),
        };
        let plan = self.plan_shared_sized(req.algorithm, &sizes, req.recorder)?;
        let opts = ExecOptions::new().ragged(ragged).recorder(req.recorder).op(req.op);
        let arena = &mut BlockArena::new();
        let out = match req.backend {
            ExecBackend::Threaded => {
                Threaded.run(&plan, &self.graph, req.payloads, arena, &self.threaded_opts(opts))?
            }
            ExecBackend::Virtual | ExecBackend::Sim => {
                Virtual.run(&plan, &self.graph, req.payloads, arena, &opts)?
            }
        };
        let sim = if req.backend == ExecBackend::Sim {
            let lens: Vec<usize> = req.payloads.iter().map(Vec::len).collect();
            Some(simulate_v(&plan, &self.layout, &lens, &SimCost::niagara())?)
        } else {
            None
        };
        Ok(CollectiveOutput { rbufs: out.rbufs, faults: out.faults, report: None, sim })
    }

    /// The combining-family half of [`Self::collective`]: alltoallv,
    /// sparse reduce_scatter and sparse allreduce over the shared item
    /// routing, with reducing agents at forwarding hops. Every backend
    /// executes the one compiled [`CombineProgram`] of the (routing, op
    /// shape).
    fn combining_collective(&self, req: &CollectiveRequest) -> Result<CollectiveOutput, CommError> {
        let sizes = derive_sizes(&self.graph, req.op, req.payloads, req.sizes.as_ref())?;
        let op = CombineOp::try_from(req.op)?;
        let prog = self.combine_program(req.algorithm, op.shape, req.recorder)?;
        let mut scratch = std::mem::take(&mut self.combine_memo().scratch);
        let out = if req.robust {
            // check_support pinned op == Alltoallv, backend == Threaded.
            self.robust_alltoallv(&prog, &mut scratch, op, req, &sizes)
        } else {
            self.run_combining(&prog, &mut scratch, op, req, &sizes)
        };
        self.combine_memo().scratch = scratch;
        out
    }

    pub(super) fn combine_memo(&self) -> MutexGuard<'_, CombineMemo> {
        self.a2a_slot.lock().expect("combining memo poisoned")
    }

    /// `(programs compiled, scratch-table growths)` of the combining
    /// family on this communicator and its clones. A warm request moves
    /// neither.
    #[cfg(test)]
    pub(crate) fn combine_counters(&self) -> (u64, u64) {
        let memo = self.combine_memo();
        (memo.compiles, memo.scratch.reallocations())
    }

    /// One non-robust combining execution on `req.backend`.
    fn run_combining(
        &self,
        prog: &CombineProgram,
        scratch: &mut CombineScratch,
        op: CombineOp,
        req: &CollectiveRequest,
        sizes: &BlockSizes,
    ) -> Result<CollectiveOutput, CommError> {
        let (sbufs, rec) = (req.payloads, req.recorder);
        let rbufs = match req.backend {
            ExecBackend::Threaded => {
                let timeout = self.policy.recv_timeout;
                run_combining_threaded(prog, scratch, op, sbufs, sizes, timeout, rec)?
            }
            ExecBackend::Virtual | ExecBackend::Sim => {
                run_combining_virtual(prog, scratch, op, sbufs, sizes, rec)?
            }
        };
        // The schedule comes off the program, whose per-message sizes
        // are the combined wire bytes — which is what makes the
        // simulated makespan reflect message combining.
        let sim = if req.backend == ExecBackend::Sim {
            Some(Engine::new(&self.layout, SimCost::niagara().net).run(&prog.schedule(sizes))?)
        } else {
            None
        };
        Ok(CollectiveOutput { rbufs, sim, ..Default::default() })
    }
}
