//! The benchmark's own seeded input generators.
//!
//! Everything the program under test receives is made here from `--seed`:
//! the same seed gives the same key-value requests and the same rb-tree
//! transaction stream, whatever the code under test does with them.

use txkv::KvOp;

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The YCSB zipfian rank generator (Gray et al., SIGMOD 1994) over `0..n`.
/// Ranks are scattered over the key space by an odd multiplier modulo the
/// (power-of-two) key count, so the hot keys spread over the store's shards.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n.is_power_of_two(), "zipf key count must be a power of two");
        let zeta = |count: u64| {
            (1..=count)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn key(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.n - 1).wrapping_mul(0x9E37_79B1) & (self.n - 1)
    }
}

/// Words per stored value (8 words = 64 bytes).
pub const VALUE_WORDS: usize = 8;

pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// A self-describing value: word 0 is the key, word 7 checks words 0..7, so
/// any reply can be verified without a model of the store.
pub fn value_for(key: u64, version: u64) -> Vec<u64> {
    let mut value = Vec::with_capacity(VALUE_WORDS);
    value.push(key);
    value.push(version);
    for i in 2..VALUE_WORDS - 1 {
        value.push(mix(version, i as u64));
    }
    value.push(check_word(&value));
    value
}

fn check_word(words: &[u64]) -> u64 {
    words[..VALUE_WORDS - 1]
        .iter()
        .fold(0x243F_6A88_85A3_08D3, |acc, &w| mix(acc, w))
}

/// `true` if `value` is a value [`value_for`] made for `key`.
pub fn value_ok(key: u64, value: &[u64]) -> bool {
    value.len() == VALUE_WORDS && value[0] == key && value[VALUE_WORDS - 1] == check_word(value)
}

/// Request class: read-only requests never touch the WAL, write requests
/// carry at least one put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// Key popularity of a key-value workload.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    Uniform,
    Zipf(f64),
}

/// The request mix of one key-value workload.
#[derive(Debug, Clone, Copy)]
pub struct KvMix {
    /// Records loaded before the run (keys `0..records`, a power of two).
    pub records: u64,
    pub keys: Keys,
    /// Share of requests that are read-only.
    pub read_share: f64,
    /// Share of read-only requests that are one ordered scan instead of
    /// point gets.
    pub scan_share: f64,
    /// Ops per batch request.
    pub batch_ops: usize,
    /// Entries a scan may return.
    pub scan_limit: u64,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub ops: Vec<KvOp>,
}

/// The seeded key-value request stream.
#[derive(Debug, Clone)]
pub struct KvGen {
    mix: KvMix,
    rng: Rng,
    zipf: Option<Zipf>,
}

impl KvGen {
    pub fn new(mix: KvMix, seed: u64) -> KvGen {
        let zipf = match mix.keys {
            Keys::Uniform => None,
            Keys::Zipf(theta) => Some(Zipf::new(mix.records, theta)),
        };
        KvGen {
            mix,
            rng: Rng::new(seed),
            zipf,
        }
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.key(&mut self.rng),
            None => self.rng.below(self.mix.records),
        }
    }

    pub fn next_request(&mut self) -> Request {
        let mix = self.mix;
        if self.rng.chance(mix.read_share) {
            let ops = if self.rng.chance(mix.scan_share) {
                let lo = self.rng.below(mix.records);
                vec![KvOp::Scan {
                    lo,
                    hi: lo + mix.scan_limit,
                    limit: mix.scan_limit,
                }]
            } else {
                (0..mix.batch_ops)
                    .map(|_| KvOp::Get { key: self.key() })
                    .collect()
            };
            return Request {
                class: Class::Read,
                ops,
            };
        }
        // A write batch: half gets, half puts (YCSB-A), with at least one put
        // so the request is never read-only.
        let forced_put = self.rng.below(mix.batch_ops as u64) as usize;
        let ops = (0..mix.batch_ops)
            .map(|i| {
                let key = self.key();
                if i == forced_put || self.rng.chance(0.5) {
                    KvOp::Put {
                        key,
                        value: value_for(key, self.rng.next_u64()),
                    }
                } else {
                    KvOp::Get { key }
                }
            })
            .collect();
        Request {
            class: Class::Write,
            ops,
        }
    }
}

/// One operation of an rb-tree transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOp {
    Lookup(u64),
    Remove(u64),
    Insert(u64, u64),
}

/// One rb-tree transaction: `tasks` equal chunks of ops.
#[derive(Debug, Clone)]
pub struct TreeTxn {
    pub class: Class,
    pub ops: Vec<TreeOp>,
}

/// Shape of the rb-tree transaction stream.
#[derive(Debug, Clone, Copy)]
pub struct TreeMix {
    pub initial_keys: u64,
    pub key_space: u64,
    pub ops_per_txn: usize,
    pub tasks: usize,
    /// Share of transactions that carry one remove/insert pair.
    pub update_share: f64,
    pub txns: usize,
}

/// The initial tree contents and a fixed transaction stream over it. Each
/// update transaction removes a present key in its first task and inserts
/// an absent key in its last task, so the tree size stays fixed and the
/// tasks of one transaction depend on each other.
pub fn tree_stream(mix: &TreeMix, seed: u64) -> (Vec<u64>, Vec<TreeTxn>) {
    let mut rng = Rng::new(seed ^ 0x7EE5);
    let mut keys: Vec<u64> = (0..mix.key_space).collect();
    for i in (1..keys.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    let split = mix.initial_keys as usize;
    let initial = keys[..split].to_vec();
    let chunk = mix.ops_per_txn / mix.tasks;
    let txns = (0..mix.txns)
        .map(|_| {
            let mut ops: Vec<TreeOp> = (0..mix.ops_per_txn)
                .map(|_| TreeOp::Lookup(rng.below(mix.key_space)))
                .collect();
            if !rng.chance(mix.update_share) {
                return TreeTxn {
                    class: Class::Read,
                    ops,
                };
            }
            let present = rng.below(split as u64) as usize;
            let absent = split + rng.below(keys.len() as u64 - split as u64) as usize;
            let (gone, added) = (keys[present], keys[absent]);
            keys.swap(present, absent);
            ops[rng.below(chunk as u64) as usize] = TreeOp::Remove(gone);
            let last = mix.ops_per_txn - chunk;
            ops[last + rng.below(chunk as u64) as usize] = TreeOp::Insert(added, rng.next_u64());
            TreeTxn {
                class: Class::Write,
                ops,
            }
        })
        .collect();
    (initial, txns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let mix = KvMix {
            records: 1024,
            keys: Keys::Zipf(0.99),
            read_share: 0.25,
            scan_share: 0.0,
            batch_ops: 16,
            scan_limit: 32,
        };
        let mut a = KvGen::new(mix, 7);
        let mut b = KvGen::new(mix, 7);
        for _ in 0..100 {
            assert_eq!(a.next_request().ops, b.next_request().ops);
        }
    }

    #[test]
    fn zipf_keys_stay_in_range_and_skew() {
        let zipf = Zipf::new(1 << 14, 0.99);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 1 << 14];
        for _ in 0..100_000 {
            hits[zipf.key(&mut rng) as usize] += 1;
        }
        let hottest = *hits.iter().max().expect("non-empty");
        assert!(
            hottest > 5_000,
            "the hottest key takes a large share: {hottest}"
        );
    }

    #[test]
    fn values_verify() {
        let v = value_for(42, 9);
        assert!(value_ok(42, &v));
        assert!(!value_ok(43, &v));
    }

    #[test]
    fn tree_stream_keeps_size_and_is_deterministic() {
        let mix = TreeMix {
            initial_keys: 64,
            key_space: 128,
            ops_per_txn: 16,
            tasks: 2,
            update_share: 0.5,
            txns: 200,
        };
        let (initial, txns) = tree_stream(&mix, 3);
        let (initial2, txns2) = tree_stream(&mix, 3);
        assert_eq!(initial, initial2);
        assert_eq!(txns.len(), txns2.len());
        let mut set: std::collections::BTreeSet<u64> = initial.into_iter().collect();
        for txn in &txns {
            for op in &txn.ops {
                match *op {
                    TreeOp::Remove(k) => assert!(set.remove(&k)),
                    TreeOp::Insert(k, _) => assert!(set.insert(k)),
                    TreeOp::Lookup(_) => {}
                }
            }
        }
        assert_eq!(set.len(), 64);
    }
}
