//! The in-process serving front-end.
//!
//! A [`KvServer`] owns one [`TxRuntime`] and one [`KvStore`]; each client
//! obtains a [`KvSession`] (one per client thread) and submits single
//! operations or multi-operation batches. A batch executes as **one atomic
//! transaction** regardless of how many shards it touches.
//!
//! The server is generic over the runtime: every non-empty shard-group of a
//! batch plan (see [`crate::ops::plan_batch`]) becomes one task body of a
//! [`TxSession::run_tasks`] group. Under TLSTM those bodies run as
//! speculative tasks that commit in plan order — the paper's
//! TLS-inside-transactions model applied to the canonical middleware
//! long-transaction, a multi-key read-modify-write batch. Sequential
//! runtimes (SwissTM, `seqref`) execute the identical plan in order inside
//! one transaction, which is what makes the runtimes directly comparable
//! (and conformance-testable against [`crate::RefStore::batch`]).
//!
//! [`KvServer::swisstm`], [`KvServer::tlstm`] and [`KvServer::seqref`] are
//! thin aliases of the generic [`KvServer::new`] for the registered runtimes.

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use txmem::{
    run_boxed_tasks, Abort, BoxedTaskBody, DirectMem, SeqRefRuntime, StatsSnapshot, TxConfig,
    TxMem, TxRuntime, TxSession, WordAddr,
};

use std::sync::Arc;

use txlog::WalError;

use crate::durable::WalLink;
use crate::ops::{plan_batch, KvOp, KvReply};
use crate::store::{KvStore, KvStoreParams};

/// Configuration of a [`KvServer`].
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    /// Store sizing (shards, expected keys).
    pub store: KvStoreParams,
    /// Shard-groups a batch is planned into. Under a speculative runtime
    /// each non-empty group becomes one task; sequential runtimes execute
    /// the plan in order. All runtimes must use the same value to produce
    /// identical batch semantics.
    pub batch_tasks: usize,
    /// Substrate configuration (heap size, lock table, spin limits).
    pub tx: TxConfig,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            store: KvStoreParams::default(),
            batch_tasks: 4,
            tx: TxConfig::default(),
        }
    }
}

impl KvServerConfig {
    fn substrate(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tx.spec_depth.max(self.batch_tasks.max(1)),
            ..self.tx.clone()
        }
    }
}

/// A transactional key-value server: one runtime, one store, many sessions.
#[derive(Debug)]
pub struct KvServer<R: TxRuntime> {
    runtime: Arc<R>,
    store: KvStore,
    batch_tasks: usize,
}

impl<R: TxRuntime> KvServer<R> {
    /// Boots a server on runtime `R`. The substrate's speculative depth is
    /// raised to at least [`KvServerConfig::batch_tasks`], so sessions can
    /// always run a full batch plan as one task group.
    pub fn new(config: &KvServerConfig) -> Self {
        let runtime = R::new(config.substrate());
        let store = KvStore::create(&mut runtime.direct(), &config.store)
            .expect("KV store allocation failed");
        KvServer {
            runtime,
            store,
            batch_tasks: config.batch_tasks.max(1),
        }
    }

    /// The store handle (for direct inspection in tests).
    pub fn store(&self) -> KvStore {
        self.store
    }

    /// Shard-groups per batch.
    pub fn batch_tasks(&self) -> usize {
        self.batch_tasks
    }

    /// The runtime this server runs on (`"swisstm"`, `"tlstm"`, `"seqref"`).
    pub fn runtime_label(&self) -> &'static str {
        R::LABEL
    }

    /// Non-transactional direct access (initialisation and test inspection
    /// only — never while sessions are running).
    pub fn direct(&self) -> DirectMem<'_> {
        self.runtime.direct()
    }

    /// Loads `entries` into the store non-transactionally (pre-measurement
    /// population, as the paper's benchmarks do).
    pub fn populate(&self, entries: impl IntoIterator<Item = (u64, Vec<u64>)>) {
        let mut mem = self.direct();
        for (key, value) in entries {
            self.store
                .put(&mut mem, key, &value)
                .expect("populate cannot abort");
        }
    }

    /// The runtime's statistics counters accumulated so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.runtime.stats()
    }

    /// Opens an in-memory session (no write-ahead log). Each client thread
    /// needs its own.
    pub fn session(&self) -> KvSession<R> {
        KvSession {
            session: self.runtime.session(),
            store: self.store,
            batch_tasks: self.batch_tasks,
            wal: None,
        }
    }
}

impl KvServer<SwisstmRuntime> {
    /// Boots a server on the SwissTM baseline runtime.
    pub fn swisstm(config: &KvServerConfig) -> Self {
        Self::new(config)
    }
}

impl KvServer<TlstmRuntime> {
    /// Boots a server on the TLSTM runtime (batches split into speculative
    /// tasks).
    pub fn tlstm(config: &KvServerConfig) -> Self {
        Self::new(config)
    }
}

impl KvServer<SeqRefRuntime> {
    /// Boots a server on the sequential global-lock reference runtime.
    pub fn seqref(config: &KvServerConfig) -> Self {
        Self::new(config)
    }
}

/// A per-client handle: submits operations and batches to the server.
///
/// [`KvServer::session`] returns an in-memory session;
/// [`DurableKvStore::session`](crate::DurableKvStore::session) returns the
/// same type carrying a link to the store's write-ahead log, so every write
/// batch is also logged and acknowledged per the store's fsync policy.
#[derive(Debug)]
pub struct KvSession<R: TxRuntime> {
    session: R::Session,
    store: KvStore,
    batch_tasks: usize,
    pub(crate) wal: Option<WalLink>,
}

impl<R: TxRuntime> KvSession<R> {
    /// Reads `key` in its own transaction (never logged).
    pub fn get(&mut self, key: u64) -> Option<Vec<u64>> {
        match self.batch_one(KvOp::Get { key }) {
            Ok(KvReply::Value(v)) => v,
            other => unreachable!("get produced {other:?}"),
        }
    }

    /// Writes `key → value` in its own transaction. Returns `true` on fresh
    /// insert; fails like [`Self::batch`].
    pub fn put(&mut self, key: u64, value: Vec<u64>) -> Result<bool, WalError> {
        match self.batch_one(KvOp::Put { key, value })? {
            KvReply::Inserted(fresh) => Ok(fresh),
            other => unreachable!("put produced {other:?}"),
        }
    }

    /// Deletes `key` in its own transaction. Returns `true` if it existed;
    /// fails like [`Self::batch`].
    pub fn delete(&mut self, key: u64) -> Result<bool, WalError> {
        match self.batch_one(KvOp::Delete { key })? {
            KvReply::Removed(existed) => Ok(existed),
            other => unreachable!("delete produced {other:?}"),
        }
    }

    /// Compare-and-swap in its own transaction; fails like [`Self::batch`].
    pub fn cas(&mut self, key: u64, expected: Vec<u64>, new: Vec<u64>) -> Result<bool, WalError> {
        match self.batch_one(KvOp::Cas { key, expected, new })? {
            KvReply::Swapped(swapped) => Ok(swapped),
            other => unreachable!("cas produced {other:?}"),
        }
    }

    /// Ordered scan in its own transaction (never logged).
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u64) -> Vec<(u64, u64)> {
        match self.batch_one(KvOp::Scan { lo, hi, limit }) {
            Ok(KvReply::Scan(hits)) => hits,
            other => unreachable!("scan produced {other:?}"),
        }
    }

    fn batch_one(&mut self, op: KvOp) -> Result<KvReply, WalError> {
        Ok(self
            .batch(vec![op])?
            .pop()
            .expect("single-op batch yields one reply"))
    }

    /// Executes `ops` as one atomic transaction and returns one reply per
    /// operation, in submission order. Execution follows the batch plan (see
    /// [`crate::ops::plan_batch`]); under a speculative runtime each
    /// non-empty shard-group runs as its own task.
    ///
    /// On a session with a write-ahead log, a batch that contains a write
    /// also parks until its redo record is durable before returning;
    /// read-only batches skip the log entirely. Several client requests can
    /// share one transaction, one redo record and one acknowledgement by
    /// being concatenated into one batch (split the replies back with
    /// [`crate::split_replies`]).
    ///
    /// # Errors
    ///
    /// Only a session with a write-ahead log fails, and only on a batch
    /// that writes:
    ///
    /// * [`WalError::Crashed`] — the WAL writer died before the record was
    ///   acknowledged. The in-memory commit stands, but the write is **not**
    ///   acknowledged as durable: after a restart, recovery may or may not
    ///   include it (it is beyond the acknowledged prefix).
    /// * [`WalError::Storage`] — this batch's record hit a storage failure
    ///   that survived the WAL's retries. Same contract as `Crashed`: the
    ///   in-memory commit stands, durability is not acknowledged (a later
    ///   [`DurableKvStore::try_rearm`](crate::DurableKvStore::try_rearm)
    ///   snapshots it in).
    /// * [`WalError::Degraded`] — the log was already poisoned when this
    ///   batch arrived; it was refused **before** the in-memory commit, so
    ///   the store state is untouched. Reads keep working throughout.
    pub fn batch(&mut self, ops: Vec<KvOp>) -> Result<Vec<KvReply>, WalError> {
        let (session, store, tasks) = (&mut self.session, self.store, self.batch_tasks);
        match &self.wal {
            Some(link) => link.batch(ops, |ops, seq| {
                batch_inner::<R>(session, store, tasks, ops, seq)
            }),
            None => Ok(batch_inner::<R>(session, store, tasks, ops, None).0),
        }
    }

    /// Runs `body` as one atomic transaction (a single task under a
    /// speculative runtime) and returns its committed result. The closure
    /// receives a `&mut dyn TxMem`, so store code generic over the memory
    /// runs inside it on any runtime; like any transaction body it may
    /// re-execute and must be side-effect free apart from its return value.
    pub(crate) fn transact<T, F>(&mut self, body: F) -> T
    where
        F: Fn(&mut dyn TxMem) -> Result<T, Abort> + Send + Sync,
        T: Send,
    {
        self.session.run(move |mem| body(mem as &mut dyn TxMem))
    }
}

/// Executes `ops` as one transaction of `session`. With `seq`, the
/// transaction is also stamped with a **commit sequence number**: the word
/// at `seq` is read and incremented *inside* the transaction, so the
/// returned numbers of concurrent batches are dense and ordered exactly as
/// the STM serialises their commits — the property the durable front-end's
/// redo log relies on. An empty batch runs no transaction (and is never
/// stamped).
fn batch_inner<R: TxRuntime>(
    session: &mut R::Session,
    store: KvStore,
    batch_tasks: usize,
    ops: Vec<KvOp>,
    seq: Option<WordAddr>,
) -> (Vec<KvReply>, Option<u64>) {
    if ops.is_empty() {
        return (Vec::new(), None);
    }
    let groups: Vec<Vec<usize>> = plan_batch(&ops, store.shards(), batch_tasks)
        .into_iter()
        .filter(|group| !group.is_empty())
        .collect();
    if !R::SPECULATIVE {
        // Sequential runtimes apply the plan's groups in order inside one
        // monomorphized transaction: the memory operations inline into
        // the runtime's transaction loop instead of going through the
        // task group's `&mut dyn TxMem` erasure.
        let (ops_ref, groups_ref) = (&ops, &groups);
        let (filled, lsn) = session.run(|mem| {
            let lsn = stamp(mem, seq)?;
            let mut filled: Vec<(usize, KvReply)> = Vec::with_capacity(ops_ref.len());
            for &index in groups_ref.iter().flatten() {
                filled.push((index, store.apply(mem, &ops_ref[index])?));
            }
            Ok((filled, lsn))
        });
        return (in_submission_order(ops.len(), filled), lsn);
    }
    // One reply vector per group, filled inside the transaction. The
    // sequence stamp rides in the first group's body; its position inside
    // the transaction is irrelevant for the commit order it captures.
    let mut group_replies: Vec<Vec<(usize, KvReply)>> =
        groups.iter().map(|g| Vec::with_capacity(g.len())).collect();
    let mut lsn = None;
    {
        let mut lsn_slot = Some(&mut lsn);
        let ops = &ops;
        let mut bodies: Vec<BoxedTaskBody<'_>> = groups
            .iter()
            .zip(group_replies.iter_mut())
            .map(|(group, replies)| {
                let mut task_lsn = lsn_slot.take();
                let body = move |mem: &mut dyn TxMem| -> Result<(), Abort> {
                    // Re-executions overwrite the slots, so only the
                    // committed execution's stamp and replies survive.
                    if let Some(slot) = task_lsn.as_mut() {
                        **slot = stamp(mem, seq)?;
                    }
                    replies.clear();
                    for &index in group {
                        replies.push((index, store.apply(mem, &ops[index])?));
                    }
                    Ok(())
                };
                Box::new(body) as BoxedTaskBody<'_>
            })
            .collect();
        run_boxed_tasks(session, &mut bodies);
    }
    let filled = group_replies.into_iter().flatten();
    (in_submission_order(ops.len(), filled), lsn)
}

/// Reads and increments the sequence word at `seq`, returning the stamp.
fn stamp<M: TxMem + ?Sized>(mem: &mut M, seq: Option<WordAddr>) -> Result<Option<u64>, Abort> {
    seq.map(|seq| {
        let lsn = mem.read(seq)?;
        mem.write(seq, lsn + 1)?;
        Ok(lsn)
    })
    .transpose()
}

/// Orders `(op index, reply)` pairs filled in plan order back into
/// submission order.
fn in_submission_order(
    len: usize,
    filled: impl IntoIterator<Item = (usize, KvReply)>,
) -> Vec<KvReply> {
    let mut replies: Vec<Option<KvReply>> = vec![None; len];
    for (index, reply) in filled {
        replies[index] = Some(reply);
    }
    replies
        .into_iter()
        .map(|r| r.expect("plan covers every op"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::checksum;
    use crate::RefStore;
    use txmem::TxConfig;

    fn test_config(batch_tasks: usize) -> KvServerConfig {
        KvServerConfig {
            store: KvStoreParams {
                shards: 8,
                expected_keys: 256,
            },
            batch_tasks,
            tx: TxConfig::small(),
        }
    }

    /// Runs `check` once per registered runtime (the pluggability the
    /// [`TxRuntime`] redesign exists to guarantee).
    fn on_every_runtime(batch_tasks: usize, check: impl Fn(&dyn ServerUnderTest)) {
        check(&KvServer::swisstm(&test_config(batch_tasks)));
        check(&KvServer::tlstm(&test_config(batch_tasks)));
        check(&KvServer::seqref(&test_config(batch_tasks)));
    }

    /// Object-safe view of a server used to iterate heterogeneous
    /// `KvServer<R>` instantiations in tests.
    trait ServerUnderTest {
        fn label(&self) -> &'static str;
        fn groups(&self) -> usize;
        fn populate_range(&self, n: u64);
        fn run_batch(&self, ops: Vec<KvOp>) -> Vec<KvReply>;
        fn dump(&self) -> Vec<(u64, Vec<u64>)>;
        fn check(&self);
        fn single_op_round_trip(&self);
    }

    impl<R: TxRuntime> ServerUnderTest for KvServer<R> {
        fn label(&self) -> &'static str {
            self.runtime_label()
        }
        fn groups(&self) -> usize {
            self.batch_tasks()
        }
        fn populate_range(&self, n: u64) {
            self.populate((0..n).map(|k| (k, vec![k, k + 1])));
        }
        fn run_batch(&self, ops: Vec<KvOp>) -> Vec<KvReply> {
            self.session().batch(ops).unwrap()
        }
        fn dump(&self) -> Vec<(u64, Vec<u64>)> {
            self.store().dump(&mut self.direct()).unwrap()
        }
        fn check(&self) {
            self.store().check_consistency(&mut self.direct()).unwrap();
        }
        fn single_op_round_trip(&self) {
            let label = self.runtime_label();
            let mut session = self.session();
            assert!(session.put(1, vec![10, 20]).unwrap(), "{label}");
            assert_eq!(session.get(1), Some(vec![10, 20]), "{label}");
            assert!(
                session.cas(1, vec![10, 20], vec![30, 40]).unwrap(),
                "{label}"
            );
            assert!(
                !session.cas(1, vec![10, 20], vec![0, 0]).unwrap(),
                "{label}"
            );
            assert_eq!(
                session.scan(0, 10, 10),
                vec![(1, checksum(&[30, 40]))],
                "{label}"
            );
            assert!(session.delete(1).unwrap(), "{label}");
            assert_eq!(session.get(1), None, "{label}");
        }
    }

    #[test]
    fn single_op_api_round_trips_on_every_runtime() {
        on_every_runtime(2, |server| server.single_op_round_trip());
    }

    #[test]
    fn batches_are_atomic_and_match_the_oracle() {
        on_every_runtime(4, |server| {
            let label = server.label();
            server.populate_range(32);
            let mut oracle = RefStore::new(8);
            for k in 0..32u64 {
                oracle.put(k, &[k, k + 1]);
            }
            let ops: Vec<KvOp> = (0..16u64)
                .map(|i| match i % 4 {
                    0 => KvOp::Get { key: i * 2 },
                    1 => KvOp::Put {
                        key: i * 2,
                        value: vec![i, i, i],
                    },
                    2 => KvOp::Cas {
                        key: i * 2,
                        expected: vec![i * 2, i * 2 + 1],
                        new: vec![99, 99],
                    },
                    _ => KvOp::Scan {
                        lo: i,
                        hi: i + 8,
                        limit: 4,
                    },
                })
                .collect();
            let got = server.run_batch(ops.clone());
            let want = oracle.batch(&ops, server.groups());
            assert_eq!(got, want, "{label} replies diverge from oracle");
            assert_eq!(
                server.dump(),
                oracle.dump(),
                "{label} committed state diverges from oracle"
            );
            server.check();
        });
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        on_every_runtime(2, |server| {
            assert!(
                server.run_batch(Vec::new()).is_empty(),
                "{}",
                server.label()
            );
        });
    }

    #[test]
    fn coalesced_requests_share_one_transaction_and_split_replies() {
        let server = KvServer::swisstm(&test_config(4));
        server.populate((0..32u64).map(|k| (k, vec![k])));
        let mut oracle = RefStore::new(8);
        for k in 0..32u64 {
            oracle.put(k, &[k]);
        }
        // Three clients' requests, including an empty one.
        let requests: Vec<Vec<KvOp>> = vec![
            vec![
                KvOp::Put {
                    key: 3,
                    value: vec![100],
                },
                KvOp::Get { key: 7 },
            ],
            vec![],
            vec![
                KvOp::Delete { key: 11 },
                KvOp::Cas {
                    key: 13,
                    expected: vec![13],
                    new: vec![99],
                },
                KvOp::Scan {
                    lo: 0,
                    hi: 16,
                    limit: 32,
                },
            ],
        ];
        let committed_before = server.stats().tx_commits;
        let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
        let replies = server
            .session()
            .batch(requests.iter().flatten().cloned().collect())
            .unwrap();
        let split = crate::split_replies(&lens, replies);
        assert_eq!(
            server.stats().tx_commits - committed_before,
            1,
            "coalesced requests must share one transaction"
        );
        // Replies match running the concatenated batch on the oracle, split
        // back at the request boundaries.
        let concatenated: Vec<KvOp> = requests.iter().flatten().cloned().collect();
        let want = oracle.batch(&concatenated, server.batch_tasks());
        assert_eq!(split.len(), 3);
        assert_eq!(split[0], want[..2].to_vec());
        assert!(split[1].is_empty());
        assert_eq!(split[2], want[2..].to_vec());
    }

    #[test]
    fn tlstm_batches_actually_split_into_tasks() {
        let server = KvServer::tlstm(&test_config(4));
        server.populate((0..64u64).map(|k| (k, vec![k])));
        let mut session = server.session();
        // A batch over many keys lands in several shard-groups.
        let ops: Vec<KvOp> = (0..32u64).map(|k| KvOp::Get { key: k * 3 }).collect();
        let replies = session.batch(ops).unwrap();
        assert_eq!(replies.len(), 32);
        let stats = server.stats();
        assert!(
            stats.task_commits > stats.tx_commits,
            "a split batch must commit more tasks than transactions \
             (tasks={}, txns={})",
            stats.task_commits,
            stats.tx_commits
        );
    }

    #[test]
    fn generic_servers_expose_runtime_labels() {
        assert_eq!(
            KvServer::swisstm(&test_config(1)).runtime_label(),
            "swisstm"
        );
        assert_eq!(KvServer::tlstm(&test_config(1)).runtime_label(), "tlstm");
        assert_eq!(KvServer::seqref(&test_config(1)).runtime_label(), "seqref");
    }
}
