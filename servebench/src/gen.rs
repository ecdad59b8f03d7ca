//! Seeded input generation: the stored bulk dataset and the request
//! stream of each workload. Everything here is a pure function of the
//! workload seed, so one seed always yields the same store db-hash and
//! the same request bytes.

use std::path::Path;

use qrel_store::{CommitStats, Mutation, Store};

/// Name of the stored dataset every workload boots with.
pub const BULK: &str = "bulk";

/// Universe size of the bulk dataset. With `S` at ~2/3 density this gives
/// ~27k facts, enough that loading the store dominates boot time.
const BULK_N: u32 = 208;

/// Rows and columns of the bulk `S` relation whose facts are all
/// uncertain; the writes target `S` facts inside this corner.
const OPEN: u32 = 8;

/// Distinct μ values a corner fact steps through: (2c+1)/256, c < 128.
const CORNER_STEPS: u64 = 128;

/// Dyadic error probabilities (the plan engine's cheap arithmetic case).
const DYADIC: [&str; 7] = ["1/2", "1/4", "3/4", "1/8", "3/8", "5/8", "7/8"];

/// Non-dyadic error probabilities (exercise full rational arithmetic).
const NON_DYADIC: [&str; 8] = ["1/3", "2/3", "1/5", "2/5", "1/6", "5/6", "2/7", "3/10"];

/// The only query the unsafe workloads send: the paper's canonical
/// non-hierarchical CQ, #P-hard for exact evaluation.
pub const H0: &str = "exists x y. R(x) & S(x,y) & T(y)";

/// Standing hierarchical self-join-free queries. Every witness of each
/// includes an `R` or `T` atom, and every `R`/`T` fact is uncertain, so
/// no answer is pinned to exactly 1 and every `S` write moves every
/// answer. Odd count, equal weights: the read median is the middle
/// query's mode, never a point between two modes.
pub const PLAN_QUERIES: [&str; 5] = [
    "exists x y. R(x) & S(x,y)",
    "exists x y. S(x,y) & T(y)",
    "exists x y z. R(x) & S(x,y) & T(z)",
    "exists x y z. S(x,y) & T(y) & R(z)",
    "exists y. T(y) & exists x. S(x,y)",
];

/// SplitMix64: small, fast, and fully specified here, so the inputs do
/// not depend on any other crate's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One fact of a generated database: relation, tuple, error probability
/// (`"0"` for a certain fact). Every generated fact is present in the
/// observed database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    pub relation: &'static str,
    pub tuple: Vec<u32>,
    pub mu: String,
}

/// A generated database over `R/1`, `S/2`, `T/1` with universe `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Db {
    pub n: u32,
    pub facts: Vec<Fact>,
}

impl Db {
    /// The database as an inline `UnreliableDatabaseSpec` JSON object.
    pub fn spec_json(&self) -> String {
        let mut tuples: [Vec<String>; 3] = Default::default();
        let mut errors = Vec::new();
        for f in &self.facts {
            let slot = match f.relation {
                "R" => 0,
                "S" => 1,
                _ => 2,
            };
            let t = format!(
                "[{}]",
                f.tuple
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            if f.mu != "0" {
                errors.push(format!(
                    "{{\"relation\":\"{}\",\"tuple\":{t},\"mu\":\"{}\"}}",
                    f.relation, f.mu
                ));
            }
            tuples[slot].push(t);
        }
        let names: Vec<String> = (0..self.n).map(|i| format!("\"e{i}\"")).collect();
        format!(
            "{{\"database\":{{\"vocab\":{{\"symbols\":[{{\"name\":\"R\",\"arity\":1}},\
             {{\"name\":\"S\",\"arity\":2}},{{\"name\":\"T\",\"arity\":1}}]}},\
             \"universe\":{{\"names\":[{}]}},\"relations\":[\
             {{\"arity\":1,\"tuples\":[{}]}},{{\"arity\":2,\"tuples\":[{}]}},\
             {{\"arity\":1,\"tuples\":[{}]}}]}},\"model\":\"full\",\"errors\":[{}]}}",
            names.join(","),
            tuples[0].join(","),
            tuples[1].join(","),
            tuples[2].join(","),
            errors.join(",")
        )
    }

    /// True when every error probability has a power-of-two denominator.
    pub fn all_dyadic(&self) -> bool {
        self.facts.iter().all(|f| match f.mu.split_once('/') {
            Some((_, den)) => den.parse::<u64>().is_ok_and(u64::is_power_of_two),
            None => true,
        })
    }
}

/// `k` of `items`, chosen uniformly, in their original order.
fn choose<T: Clone>(rng: &mut Rng, items: &[T], k: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut idx);
    let mut picked = idx[..k.min(items.len())].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(|i| items[i].clone()).collect()
}

/// A dense random database over `n` elements. Counts are fixed, not
/// drawn, so every seed yields the same sizes (and the same costs):
/// `3n/4` `R` and `T` facts, all uncertain; `S` holds `s_num/s_den` of
/// the pairs, a quarter of them uncertain. `S` facts in the first `open`
/// rows or columns are all uncertain, so the existential answers over
/// those lines are not pinned to 1 by a certain fact; outside the
/// `open × open` corner (which keeps the `S` density) each of those
/// lines holds 1/16 of its pairs, which keeps the exact answers to a few
/// thousand bits. The first `open` elements are always in `R` and `T`,
/// so the corner's shape does not depend on the seed either; corner
/// facts take μ = (2c+1)/256 for a seeded c (the values `Writes` moves
/// them through). Other uncertain facts take consecutive values of a
/// cycle through `mus` from a seeded offset, so every line holds a
/// near-equal mix of values and the cost of exact arithmetic does not
/// depend on the seed.
fn dense_db(
    rng: &mut Rng,
    n: u32,
    s_num: usize,
    s_den: usize,
    open: u32,
    mus: &[&'static str],
) -> Db {
    let others: Vec<u32> = (open..n).collect();
    let mut cycle = rng.below(mus.len() as u64) as usize;
    let mut next_mu = || {
        cycle += 1;
        mus[cycle % mus.len()].to_string()
    };
    let mut facts = Vec::new();
    for rel in ["R", "T"] {
        let rest = choose(rng, &others, (3 * n / 4 - open) as usize);
        for x in (0..open).chain(rest) {
            facts.push(Fact {
                relation: rel,
                tuple: vec![x],
                mu: next_mu(),
            });
        }
    }
    let mut s_facts: Vec<(Vec<u32>, String)> = Vec::new();
    let corner: Vec<Vec<u32>> = (0..open)
        .flat_map(|x| (0..open).map(move |y| vec![x, y]))
        .collect();
    for t in choose(rng, &corner, corner.len() * s_num / s_den) {
        let mu = format!("{}/256", 2 * rng.below(CORNER_STEPS) + 1);
        s_facts.push((t, mu));
    }
    // Each open row and each open column holds the same number of facts
    // outside the corner, with consecutive values of the μ cycle.
    for line in 0..open {
        for other in choose(rng, &others, others.len() / 16) {
            s_facts.push((vec![line, other], next_mu()));
        }
        for other in choose(rng, &others, others.len() / 16) {
            s_facts.push((vec![other, line], next_mu()));
        }
    }
    let rest: Vec<Vec<u32>> = others
        .iter()
        .flat_map(|&x| others.iter().map(move |&y| vec![x, y]))
        .collect();
    let dense = choose(rng, &rest, rest.len() * s_num / s_den);
    let uncertain = choose(rng, &(0..dense.len()).collect::<Vec<_>>(), dense.len() / 4);
    let mut is_uncertain = vec![false; dense.len()];
    for i in uncertain {
        is_uncertain[i] = true;
    }
    for (t, u) in dense.into_iter().zip(is_uncertain) {
        let mu = if u { next_mu() } else { "0".to_string() };
        s_facts.push((t, mu));
    }
    s_facts.sort();
    facts.extend(s_facts.into_iter().map(|(tuple, mu)| Fact {
        relation: "S",
        tuple,
        mu,
    }));
    Db { n, facts }
}

/// The stored bulk dataset (~27k facts, dyadic μ).
pub fn bulk_db(seed: u64) -> Db {
    dense_db(&mut Rng::new(seed, 1), BULK_N, 2, 3, OPEN, &DYADIC)
}

/// The ~1k-fact database `hot_hits` ships inline with every request.
pub fn hot_db(seed: u64) -> Db {
    dense_db(&mut Rng::new(seed, 2), 36, 7, 10, 0, &DYADIC)
}

/// Create a store in `dir` holding the bulk dataset; returns the commit
/// stats (the db-hash the server must report for it).
pub fn write_store(dir: &Path, db: &Db) -> Result<CommitStats, String> {
    let mut store = Store::init(dir).map_err(|e| e.to_string())?;
    let universe: Vec<String> = (0..db.n).map(|i| format!("e{i}")).collect();
    let relations = vec![("R".into(), 1), ("S".into(), 2), ("T".into(), 1)];
    store
        .create_dataset(BULK, universe, relations, "full")
        .map_err(|e| e.to_string())?;
    let batch: Vec<Mutation> = db
        .facts
        .iter()
        .map(|f| Mutation::set(f.relation, f.tuple.clone(), true, &f.mu))
        .collect();
    store.commit(BULK, &batch).map_err(|e| e.to_string())
}

/// A one-fact upsert: set the error probability of a present fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    pub relation: &'static str,
    pub tuple: Vec<u32>,
    pub mu: String,
}

impl Write {
    pub fn body(&self) -> Vec<u8> {
        format!(
            "{{\"facts\":[{{\"relation\":\"{}\",\"tuple\":[{}],\"present\":true,\"mu\":\"{}\"}}]}}",
            self.relation,
            self.tuple
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.mu
        )
        .into_bytes()
    }
}

/// Deterministic sequence of one-fact upserts against the bulk dataset.
/// Every target is an `S(a,b)` fact in the `OPEN × OPEN` corner, where
/// `R(a)` and `T(b)` are present and row `a` and column `b` hold no
/// certain `S` fact, so every write changes the exact answer of every
/// standing query. Write `i` takes corner fact `i mod K` (in a seeded
/// order) one step further along the `CORNER_STEPS` odd multiples of
/// 1/256 from its starting μ: the dataset never returns to an earlier
/// state (and no read after a write can be a result-cache hit) for
/// `CORNER_STEPS · K` writes, and the answers' sizes do not drift as
/// writes accumulate.
#[derive(Debug, Clone)]
pub struct Writes {
    /// Corner facts with their starting step.
    corner: Vec<(Vec<u32>, u64)>,
    count: u64,
}

impl Writes {
    fn new(mut rng: Rng, bulk: &Db) -> Self {
        let mut corner: Vec<(Vec<u32>, u64)> = bulk
            .facts
            .iter()
            .filter(|f| f.relation == "S" && f.tuple.iter().all(|&e| e < OPEN))
            .map(|f| {
                let numer: u64 =
                    f.mu.strip_suffix("/256")
                        .and_then(|n| n.parse().ok())
                        .expect("corner facts have μ = (2c+1)/256");
                (f.tuple.clone(), numer / 2)
            })
            .collect();
        rng.shuffle(&mut corner);
        Writes { corner, count: 0 }
    }

    pub fn next_write(&mut self) -> Write {
        let k = self.corner.len() as u64;
        let (tuple, start) = &self.corner[(self.count % k) as usize];
        let step = (start + self.count / k + 1) % CORNER_STEPS;
        self.count += 1;
        Write {
            relation: "S",
            tuple: tuple.clone(),
            mu: format!("{}/256", 2 * step + 1),
        }
    }
}

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotHits,
    PlanRw,
    UnsafeExact,
    UnsafeSampled,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "hot_hits" => Kind::HotHits,
            "plan_rw" => Kind::PlanRw,
            "unsafe_exact" => Kind::UnsafeExact,
            "unsafe_sampled" => Kind::UnsafeSampled,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotHits => "hot_hits",
            Kind::PlanRw => "plan_rw",
            Kind::UnsafeExact => "unsafe_exact",
            Kind::UnsafeSampled => "unsafe_sampled",
        }
    }

    /// The answering method (the `"method"` reply field) every solve of
    /// this workload must report; anything else is a failed operation.
    pub fn method(self) -> &'static str {
        match self {
            Kind::HotHits | Kind::PlanRw => "plan",
            Kind::UnsafeExact => "exact",
            Kind::UnsafeSampled => "fptras",
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/solve` with this body.
    Solve {
        body: Vec<u8>,
        /// Inline spec, or `None` for a request naming the bulk dataset.
        inline: Option<InlineInfo>,
    },
    /// `POST /v1/datasets/bulk/facts`.
    Write(Write),
}

/// Properties of an inline request's database, for the property shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineInfo {
    pub dyadic: bool,
}

fn solve_body(db_json: &str, query: &str, seed: u64) -> Vec<u8> {
    format!("{{\"db\":{db_json},\"query\":\"{query}\",\"seed\":{seed}}}").into_bytes()
}

/// Relative error requested by `unsafe_sampled`. Karp–Luby draws
/// `4·m·ln(2/δ)/ε²` samples; at ε = 0.2, δ = 0.05 and m = 144 that is
/// ~53k samples, tens of milliseconds per request, so a run holds a few
/// hundred requests.
const SAMPLED_EPS: f64 = 0.2;

fn named_body(query: &str) -> Vec<u8> {
    format!("{{\"dataset\":\"{BULK}\",\"query\":\"{query}\"}}").into_bytes()
}

/// A fresh H0 instance with a fixed shape, so every request costs the
/// same: `a` R-facts, `b` T-facts, and the full `a × b` block of S-facts
/// between them (the lineage has exactly `a·b` terms), plus `extra`
/// certain S-facts outside the block that H0 cannot use. Elements are
/// drawn from a shuffled universe and μ from the non-dyadic pool, so no
/// two instances share a db-hash. `uncertain` facts of the block get a
/// non-zero μ (R and T facts first), the rest are certain.
fn h0_instance(rng: &mut Rng, n: u32, a: u32, b: u32, uncertain: usize) -> Db {
    let mut elems: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut elems);
    let xs = &elems[..a as usize];
    let ys = &elems[a as usize..(a + b) as usize];
    let mut block: Vec<(&'static str, Vec<u32>)> = Vec::new();
    block.extend(xs.iter().map(|&x| ("R", vec![x])));
    block.extend(ys.iter().map(|&y| ("T", vec![y])));
    for &x in xs {
        for &y in ys {
            block.push(("S", vec![x, y]));
        }
    }
    // R and T first, then a seeded choice of S facts, become uncertain.
    let rt = (a + b) as usize;
    let mut s_order: Vec<usize> = (rt..block.len()).collect();
    rng.shuffle(&mut s_order);
    let mut is_uncertain = vec![false; block.len()];
    for i in (0..rt).chain(s_order).take(uncertain) {
        is_uncertain[i] = true;
    }
    let facts = block
        .into_iter()
        .zip(is_uncertain)
        .map(|((relation, tuple), u)| Fact {
            relation,
            tuple,
            mu: if u { rng.pick(&NON_DYADIC) } else { "0" }.to_string(),
        })
        .collect();
    Db { n, facts }
}

/// H0's worst case over `n` elements: every `R(x)`, `T(y)` and `S(x,y)`
/// fact present and uncertain, so the lineage has exactly `n²` terms.
/// Non-dyadic μ drawn per fact keeps every instance's db-hash fresh.
fn h0_complete(rng: &mut Rng, n: u32) -> Db {
    let mut facts = Vec::new();
    for rel in ["R", "T"] {
        facts.extend((0..n).map(|x| Fact {
            relation: rel,
            tuple: vec![x],
            mu: rng.pick(&NON_DYADIC).to_string(),
        }));
    }
    for x in 0..n {
        facts.extend((0..n).map(|y| Fact {
            relation: "S",
            tuple: vec![x, y],
            mu: rng.pick(&NON_DYADIC).to_string(),
        }));
    }
    Db { n, facts }
}

/// The deterministic operation stream of one workload.
pub struct Stream {
    kind: Kind,
    seed: u64,
    index: u64,
    rng: Rng,
    /// `hot_hits`: the fixed key pool.
    pool: Vec<Vec<u8>>,
    hot_dyadic: bool,
    writes: Writes,
}

/// The (query, seed) keys `hot_hits` cycles through.
const HOT_KEYS: [(usize, u64); 5] = [(0, 0), (1, 0), (4, 0), (0, 1), (1, 1)];

impl Stream {
    pub fn new(kind: Kind, seed: u64, bulk: &Db) -> Self {
        let hot = hot_db(seed);
        let hot_json = hot.spec_json();
        let pool = HOT_KEYS
            .iter()
            .map(|&(q, s)| solve_body(&hot_json, PLAN_QUERIES[q], s))
            .collect();
        Stream {
            kind,
            seed,
            index: 0,
            rng: Rng::new(seed, 4),
            pool,
            hot_dyadic: hot.all_dyadic(),
            writes: Writes::new(Rng::new(seed, 3), bulk),
        }
    }

    /// The warm-up pass: one request per cache key the timed stream
    /// uses, so the result and plan caches hold what they will hold in
    /// steady state. Instances of the unsafe workloads are fresh in the
    /// timed stream, so their warm-up is one instance of its own (another
    /// seed stream) that only fills the plan cache: the decline is cached
    /// by (query, schema), and every instance has the same schema.
    pub fn warmup(&self) -> Vec<Op> {
        match self.kind {
            Kind::HotHits => self
                .pool
                .iter()
                .map(|body| Op::Solve {
                    body: body.clone(),
                    inline: Some(InlineInfo {
                        dyadic: self.hot_dyadic,
                    }),
                })
                .collect(),
            Kind::PlanRw => PLAN_QUERIES
                .iter()
                .map(|q| Op::Solve {
                    body: named_body(q),
                    inline: None,
                })
                .collect(),
            Kind::UnsafeExact | Kind::UnsafeSampled => {
                vec![self.unsafe_op(&mut Rng::new(self.seed, 5))]
            }
        }
    }

    fn unsafe_op(&self, rng: &mut Rng) -> Op {
        let db = match self.kind {
            // 2 R + 2 T + 2·5 S in the block, exactly 10 uncertain:
            // 2^10 worlds, under the 2^14 exact cap.
            Kind::UnsafeExact => h0_instance(rng, 12, 2, 5, 10),
            // Every R, T and S fact over 12 elements, all uncertain: 168
            // uncertain facts (far above the exact cap), 144 lineage terms.
            _ => h0_complete(rng, 12),
        };
        let mut body = solve_body(&db.spec_json(), H0, 0);
        if self.kind == Kind::UnsafeSampled {
            body.pop();
            body.extend(format!(",\"eps\":{SAMPLED_EPS}}}").bytes());
        }
        Op::Solve {
            body,
            inline: Some(InlineInfo {
                dyadic: db.all_dyadic(),
            }),
        }
    }

    /// True when the next operation starts a cycle (`plan_rw`: the next
    /// one is a write); always true for the other workloads.
    pub fn at_cycle_start(&self) -> bool {
        self.kind != Kind::PlanRw || self.index.is_multiple_of(PLAN_QUERIES.len() as u64 + 1)
    }

    /// The next operation of the timed stream.
    pub fn next_op(&mut self) -> Op {
        let i = self.index;
        self.index += 1;
        match self.kind {
            Kind::HotHits => Op::Solve {
                body: self.pool[(i % self.pool.len() as u64) as usize].clone(),
                inline: Some(InlineInfo {
                    dyadic: self.hot_dyadic,
                }),
            },
            // One upsert, then every standing query once.
            Kind::PlanRw => {
                let cycle = PLAN_QUERIES.len() as u64 + 1;
                match i % cycle {
                    0 => Op::Write(self.writes.next_write()),
                    q => Op::Solve {
                        body: named_body(PLAN_QUERIES[q as usize - 1]),
                        inline: None,
                    },
                }
            }
            Kind::UnsafeExact | Kind::UnsafeSampled => {
                let mut rng = self.rng.clone();
                let op = self.unsafe_op(&mut rng);
                self.rng = rng;
                op
            }
        }
    }

    /// Writes for the write probe of workloads without writes of their
    /// own, sent after each boot's timed reads (a separate seed stream
    /// from `plan_rw`'s).
    pub fn probe_writes(seed: u64, bulk: &Db) -> Writes {
        Writes::new(Rng::new(seed, 6), bulk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(kind: Kind, seed: u64, ops: usize) -> u64 {
        let bulk = bulk_db(seed);
        let mut s = Stream::new(kind, seed, &bulk);
        let mut bytes = Vec::new();
        for op in s.warmup().into_iter().chain((0..ops).map(|_| s.next_op())) {
            match op {
                Op::Solve { body, .. } => bytes.extend(body),
                Op::Write(w) => bytes.extend(w.body()),
            }
        }
        qrel_serve::cache::fnv1a(&bytes)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-scratch")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_seed_yields_one_store_hash() {
        let a = write_store(&scratch("gen-a"), &bulk_db(7)).unwrap();
        let b = write_store(&scratch("gen-b"), &bulk_db(7)).unwrap();
        let c = write_store(&scratch("gen-c"), &bulk_db(8)).unwrap();
        assert_eq!(a.db_hash, b.db_hash);
        assert_eq!(a.live_facts, b.live_facts);
        assert_ne!(a.db_hash, c.db_hash);
        assert!((25_000..30_000).contains(&a.live_facts), "{}", a.live_facts);
    }

    #[test]
    fn one_seed_yields_one_request_stream() {
        for kind in [
            Kind::HotHits,
            Kind::PlanRw,
            Kind::UnsafeExact,
            Kind::UnsafeSampled,
        ] {
            assert_eq!(digest(kind, 7, 200), digest(kind, 7, 200), "{kind:?}");
            assert_ne!(digest(kind, 7, 200), digest(kind, 8, 200), "{kind:?}");
        }
    }

    #[test]
    fn inline_specs_build_with_the_intended_shape() {
        let spec_of = |op: Op| match op {
            Op::Solve { body, .. } => {
                let req = qrel_serve::protocol::parse_solve_request(
                    &body,
                    serde_json::ParseLimits {
                        max_depth: 64,
                        max_bytes: 1 << 20,
                    },
                )
                .unwrap();
                match req.db {
                    qrel_serve::DbRef::Inline(spec) => spec.build().unwrap(),
                    qrel_serve::DbRef::Named(_) => panic!("expected an inline spec"),
                }
            }
            Op::Write(_) => panic!("expected a solve"),
        };
        let bulk = bulk_db(3);
        let mut exact = Stream::new(Kind::UnsafeExact, 3, &bulk);
        assert_eq!(spec_of(exact.next_op()).uncertain_facts().len(), 10);
        let mut sampled = Stream::new(Kind::UnsafeSampled, 3, &bulk);
        assert_eq!(spec_of(sampled.next_op()).uncertain_facts().len(), 168);
        let hot = Stream::new(Kind::HotHits, 3, &bulk);
        let facts = hot_db(3).facts.len();
        assert!((800..1200).contains(&facts), "{facts}");
        assert!(matches!(&hot.warmup()[0], Op::Solve { body, .. } if body.len() > 10_000));
    }

    #[test]
    fn writes_never_revisit_a_dataset_state() {
        let bulk = bulk_db(5);
        let mut state: std::collections::BTreeMap<Vec<u32>, String> = bulk
            .facts
            .iter()
            .filter(|f| f.relation == "S" && f.tuple.iter().all(|&e| e < OPEN))
            .map(|f| (f.tuple.clone(), f.mu.clone()))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(format!("{state:?}"));
        let mut writes = Stream::probe_writes(5, &bulk);
        for i in 0..2000 {
            let w = writes.next_write();
            let old = state.insert(w.tuple.clone(), w.mu.clone());
            assert!(old.is_some(), "write {i} targets a fact outside the corner");
            assert_ne!(old.as_ref(), Some(&w.mu), "write {i} is a no-op");
            assert!(
                seen.insert(format!("{state:?}")),
                "write {i} revisits a state"
            );
        }
    }
}
