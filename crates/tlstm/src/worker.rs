//! Task lanes: the execution engine behind a TLSTM user-thread.
//!
//! A user-thread of speculative depth `SPECDEPTH` runs its tasks on
//! `SPECDEPTH` *lanes*: task `serial` belongs to lane `serial mod SPECDEPTH`.
//! A lane runs its tasks in serial order and does not start the next one until
//! the current one has *retired* (its user-transaction committed), so at most
//! `SPECDEPTH` tasks of the user-thread are active at any time — exactly the
//! admission rule of the paper.
//!
//! The user-thread executes one lane itself: in each batch, the lane that
//! holds the batch's last serial. `SPECDEPTH − 1` worker threads execute the
//! others, so a user-thread of depth 1 spawns no worker thread at all. Every
//! lane — a worker's, the user-thread's own, and the sequential fallback —
//! runs its tasks through the one task loop, `TaskRunner::run_task`, which
//! also implements the rollback protocols:
//!
//! * **individual task rollback** (intra-thread WAR/WAW, losing an
//!   inter-thread conflict): remove the task's speculative chain entries,
//!   reset its logs and re-run the body;
//! * **user-transaction rollback**: every task removes its own entries and
//!   acknowledges; the commit-task waits for all acknowledgements, resets the
//!   user-thread counters, bumps the rollback epoch and everyone re-executes.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use swisstm::cm::GreedyTicket;
use txmem::{AbortReason, TxSubstrate};

use crate::cm::TaskAwareCm;
use crate::runtime::StormWatch;
use crate::task::{TaskBufs, TaskCtx};
use crate::txn_state::TxnShared;
use crate::uthread_state::UThreadShared;
use crate::TaskFn;

/// After this many rollbacks of the same user-transaction, its tasks fall back
/// to executing in program order (each task waits for all past tasks to
/// complete before running its body). This breaks pathological intra-thread
/// write-after-write livelocks at the cost of serialising the transaction —
/// the behaviour the paper reports for write-heavy long traversals.
const PESSIMISTIC_AFTER_ROLLBACKS: u32 = 2;

/// After this many rollbacks a transaction turns greedy (draws a
/// contention-manager ticket), mirroring the SwissTM two-phase policy.
const GREEDY_AFTER_ROLLBACKS: u32 = 2;

/// After this many *individual task* aborts decided by the inter-thread
/// contention manager, the whole user-transaction turns greedy. Without this
/// escalation two transactions whose tasks hold each other's write locks can
/// self-abort in a symmetric-timid cycle forever: neither ever suffers a
/// whole-transaction rollback (the locks they already hold stay held), so
/// [`GREEDY_AFTER_ROLLBACKS`] alone never breaks the tie.
const GREEDY_AFTER_CM_SELF_ABORTS: u32 = 3;

/// One task of one user-transaction, as a lane runs it.
pub(crate) struct WorkItem {
    /// Serial number of the task.
    pub serial: u64,
    /// `true` if this is the commit-task of its user-transaction.
    pub try_commit: bool,
    /// Shared state of the enclosing user-transaction.
    pub txn: Arc<TxnShared>,
    /// The task body.
    pub body: TaskFn,
}

impl std::fmt::Debug for WorkItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkItem")
            .field("serial", &self.serial)
            .field("try_commit", &self.try_commit)
            .finish_non_exhaustive()
    }
}

/// What every lane of a user-thread shares: the substrate, the user-thread
/// state, the contention manager, the greedy ticket dispenser and the
/// abort-storm detector.
#[derive(Clone)]
pub(crate) struct TaskRunner {
    pub substrate: Arc<TxSubstrate>,
    pub uthread: Arc<UThreadShared>,
    pub cm: TaskAwareCm,
    pub tickets: Arc<GreedyTicket>,
    pub storm: Arc<StormWatch>,
}

impl std::fmt::Debug for TaskRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRunner")
            .field("ptid", &self.uthread.ptid())
            .finish_non_exhaustive()
    }
}

impl TaskRunner {
    /// The task loop: executes one task until it retires (its
    /// user-transaction commits) or vacates it (the user-thread abandoned the
    /// transaction), building its speculative state inside the lane's
    /// recycled `bufs`.
    pub fn run_task(&self, item: &WorkItem, bufs: &mut TaskBufs) {
        // Task activity is attributed to the owning *user*-thread's shard, not
        // to the executing OS thread, so per-shard snapshots read as
        // per-user-thread breakdowns.
        let stats = self.substrate.stats.shard(self.uthread.ptid());
        stats.bump(&stats.task_starts);
        let mut ctx = TaskCtx::new(
            &self.substrate,
            self.cm,
            Arc::clone(&self.uthread),
            Arc::clone(&item.txn),
            item.serial,
            item.try_commit,
            bufs,
        );
        let mut attempt = 0u32;
        loop {
            attempt = attempt.wrapping_add(1);
            // If a rollback of this transaction is already pending, join it
            // before (re-)executing the body.
            if item.txn.abort_requested() {
                self.participate_in_rollback(&mut ctx);
            }
            // Abort-storm fallback: the user-thread abandoned speculative
            // execution of this transaction. The rollback that was requested
            // alongside the abandonment has dismantled this task's
            // speculative state (the check sits after the participation
            // above, and `finish_rollback` clears the request), so the task
            // can simply vacate — the user-thread re-runs the transaction
            // sequentially inline.
            if item.txn.abandoned() && !item.txn.abort_requested() {
                return;
            }
            // Pessimistic fallback: after repeated transaction rollbacks, run
            // the tasks of this transaction in program order.
            if item.txn.rollbacks() >= PESSIMISTIC_AFTER_ROLLBACKS {
                let uthread = &self.uthread;
                let serial = item.serial;
                let txn = &item.txn;
                uthread.wait_until(|| {
                    uthread.completed_task() >= serial.saturating_sub(1) || txn.abort_requested()
                });
                if item.txn.abort_requested() {
                    continue;
                }
            }
            ctx.reset_for_attempt();
            let outcome = (item.body)(&mut ctx).and_then(|()| ctx.task_commit());
            match outcome {
                Ok(()) => {
                    stats.bump(&stats.task_commits);
                    ctx.flush_op_counters();
                    return;
                }
                Err(abort) => {
                    stats.bump(&stats.task_aborts);
                    stats.record_abort_reason(abort.reason);
                    txobs::tx_abort(abort.reason.trace_cause());
                    ctx.remove_chain_entries();
                    if abort.reason == AbortReason::InterThreadWriteConflict
                        && item.txn.note_cm_self_abort() >= GREEDY_AFTER_CM_SELF_ABORTS
                        && item.txn.priority() == crate::txn_state::TIMID_PRIORITY
                    {
                        item.txn.set_priority(self.tickets.draw());
                    }
                    if abort.reason == AbortReason::TransactionAbortSignal
                        || item.txn.abort_requested()
                    {
                        self.participate_in_rollback(&mut ctx);
                    }
                    // Every lane samples the abort-storm detector: the
                    // churning one is the lane that is sure to be running.
                    self.storm.sample();
                    // Back off before re-executing, while holding no locks or
                    // chain entries. Without this, a signalled future task can
                    // phase-lock with the past writer that keeps signalling
                    // it: the future task releases and re-acquires the
                    // contested write lock faster than the (yielding) past
                    // writer re-samples it, so the writer never gets the lock
                    // and the pair livelocks. Sleeping with the lock free
                    // guarantees the past writer's next sample succeeds.
                    abort_backoff(attempt);
                }
            }
        }
    }

    /// Joins the coordinated rollback of the task's user-transaction.
    ///
    /// Non-commit tasks acknowledge and wait for the rollback epoch to
    /// advance; the commit-task drives the protocol (waits for every other
    /// task, resets the user-thread counters and re-arms the transaction).
    fn participate_in_rollback(&self, ctx: &mut TaskCtx<'_>) {
        let txn = Arc::clone(ctx.txn());
        let uthread = &self.uthread;
        if ctx.is_commit_task() {
            txn.start_rollback();
            let needed = (txn.n_tasks() - 1) as u32;
            uthread.wait_until(|| txn.acks() >= needed);
            uthread.reset_after_rollback(txn.start_serial());
            let stats = self.substrate.stats.shard(uthread.ptid());
            stats.bump(&stats.tx_aborts);
            if txn.rollbacks() + 1 >= GREEDY_AFTER_ROLLBACKS
                && txn.priority() == crate::txn_state::TIMID_PRIORITY
            {
                txn.set_priority(self.tickets.draw());
            }
            txn.finish_rollback();
        } else {
            let epoch = txn.epoch();
            txn.ack_abort();
            uthread.wait_until(|| txn.epoch() > epoch);
        }
    }
}

/// Exponential backoff between re-execution attempts of an aborted task:
/// the first few retries only yield, later ones sleep for exponentially
/// longer (capped), which breaks intra-thread signal/re-acquire livelocks.
fn abort_backoff(attempt: u32) {
    match attempt {
        0..=2 => std::thread::yield_now(),
        n => {
            let micros = 1u64 << n.saturating_sub(3).min(6);
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }
}

/// Long-lived state of one worker thread: it serves whichever lane the
/// user-thread assigns it in each batch.
pub(crate) struct Worker {
    pub runner: TaskRunner,
    pub queue: Receiver<WorkItem>,
    /// Notified (with the task serial) when a task has retired or vacated.
    pub done: Sender<u64>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("runner", &self.runner)
            .finish_non_exhaustive()
    }
}

impl Worker {
    /// The worker main loop: runs tasks from the queue until the channel is
    /// closed (the user-thread handle was dropped).
    ///
    /// Between tasks the worker first spins briefly on the queue (the next
    /// task of a pipelined batch is usually already there, and parking the
    /// thread would put an OS wake-up on the critical path of every
    /// transaction) before falling back to a blocking receive.
    pub fn run(self) {
        // On a single-core host, spinning on the queue starves the producer;
        // fall through to the blocking receive immediately.
        let spin_budget = if txmem::pause::multi_core() {
            4_000u32
        } else {
            0
        };
        // One set of speculative buffers for the worker's lifetime, recycled
        // across every task and attempt it runs.
        let mut bufs = TaskBufs::default();
        'outer: loop {
            let mut item = None;
            for i in 0..spin_budget {
                match self.queue.try_recv() {
                    Ok(work) => {
                        item = Some(work);
                        break;
                    }
                    Err(crossbeam::channel::TryRecvError::Empty) => {
                        if i % 256 == 255 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    Err(crossbeam::channel::TryRecvError::Disconnected) => break 'outer,
                }
            }
            let item = match item {
                Some(work) => work,
                None => match self.queue.recv() {
                    Ok(work) => work,
                    Err(_) => break,
                },
            };
            self.runner.run_task(&item, &mut bufs);
            // The receiver of `done` may already be gone if the user-thread
            // handle is being dropped; that is not an error for the worker.
            let _ = self.done.send(item.serial);
        }
    }
}
