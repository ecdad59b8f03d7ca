//! The library side of the serve ≡ library contract, and the traced
//! in-process replay.
//!
//! [`Library`] answers a `/v1/solve` body the way the server's admission
//! and execution path does, by calling each layer's public function in
//! the same order: parse → spec build → db-hash → query parse → result
//! cache → plan cache → scheduler hand-off → `Solver::solve` → reply
//! serialization. Its reply bytes are the reference every served reply
//! must equal. With a [`Tracer`] switched on, each call is one span;
//! spans live in memory and are written out when the run ends.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrel_budget::Budget;
use qrel_core::exact_reliability_budgeted_sharded;
use qrel_core::existential::{ground_with_probabilities, DEFAULT_MAX_TERMS};
use qrel_count::karp_luby::KarpLuby;
use qrel_eval::FoQuery;
use qrel_par::{split_seed, DEFAULT_SHARDS};
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Method, SolveReport, Solver};
use qrel_sched::{Priority, SchedConfig, Scheduler};
use qrel_serve::cache::PlanCache;
use qrel_serve::protocol::{is_deterministic, parse_solve_request};
use qrel_serve::{canonical_db_hash, solve_response_body, CacheKey, DbRef, ResultCache};
use qrel_store::Store;
use serde_json::ParseLimits;

use crate::gen::Write;

/// Serve's defaults that shape a solve: a 30 s budget deadline, one
/// solver thread, 4 workers (the scheduler mirrors the HTTP pool), a
/// 64 MiB result cache and a 1 MiB body cap.
const DEFAULT_TIMEOUT_MS: u64 = 30_000;
const SERVE_WORKERS: usize = 4;
const CACHE_BYTES: usize = 64 * 1024 * 1024;
const MAX_BODY: usize = 1024 * 1024;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Switched off, [`Tracer::span`] only calls
/// the closure, so the untraced replay runs the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (default: the innermost open span).
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: parent.or_else(|| self.stack.last().copied()),
            request: self.request,
        });
        self.stack.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, None);
        let r = f();
        self.close(id);
        r
    }

    /// A span attributed to `parent` although it runs after `parent`
    /// closed: the per-engine breakdown re-runs the answering engine on
    /// the same input and books it as a child of the solve.
    fn span_under<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Start a request (a root span).
    pub fn begin_request(&mut self, request: u64, name: &'static str) -> Option<usize> {
        self.request = request;
        self.open(name, None)
    }

    pub fn end_request(&mut self, id: Option<usize>) {
        self.close(id);
    }

    /// Id of the most recently opened span with this name.
    fn last(&self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.iter().rposition(|s| s.name == name)
    }
}

/// Counts observed on one solve, for the per-layer count metrics.
#[derive(Debug, Clone, Default)]
pub struct SolveFacts {
    pub rungs_tried: u64,
    pub worlds: u64,
    pub samples: u64,
    pub answer_bits: u64,
    pub plan_nodes: u64,
    pub lineage_terms: u64,
}

/// What the library answered.
pub struct Answer {
    pub body: Vec<u8>,
    /// `None` on a cache hit (no solve ran).
    pub facts: Option<SolveFacts>,
    /// In-process time of the request, in milliseconds.
    pub request_ms: f64,
}

struct Named {
    ud: UnreliableDatabase,
    hash: u64,
}

pub struct Library {
    cache: ResultCache,
    plan_cache: PlanCache,
    sched: Scheduler<(), ()>,
    named: HashMap<String, Named>,
    /// Record a per-engine breakdown of each solve (traced replay only).
    breakdown: bool,
}

fn limits() -> ParseLimits {
    ParseLimits {
        max_depth: 64,
        max_bytes: MAX_BODY,
    }
}

/// The serve plan cache's schema key: relation symbols in declaration
/// order.
fn schema_fingerprint(ud: &UnreliableDatabase) -> String {
    ud.observed()
        .vocabulary()
        .symbols()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl Library {
    pub fn new(breakdown: bool) -> Self {
        Library {
            cache: ResultCache::new(CACHE_BYTES),
            plan_cache: PlanCache::new(),
            sched: Scheduler::new(
                SchedConfig {
                    workers: SERVE_WORKERS,
                    ..SchedConfig::default()
                },
                |_: &(), _| (),
            ),
            named: HashMap::new(),
            breakdown,
        }
    }

    /// Register a stored dataset under the db-hash the store reports.
    pub fn add_named(&mut self, name: &str, ud: UnreliableDatabase, hash: u64) {
        self.named.insert(name.to_string(), Named { ud, hash });
    }

    /// Commit a one-fact upsert the way the server's write path does
    /// (`Store::commit`, the `store.commit` span). Returns the new db-hash
    /// and the rows committed; [`Library::reload`] brings the in-memory
    /// dataset up to date.
    pub fn commit(
        &mut self,
        dataset: &str,
        w: &Write,
        store: &mut Store,
        t: &mut Tracer,
    ) -> Result<(u64, u64), String> {
        let batch = [qrel_store::Mutation::set(
            w.relation,
            w.tuple.clone(),
            true,
            &w.mu,
        )];
        let stats = t
            .span("store.commit", || store.commit(dataset, &batch))
            .map_err(|e| e.to_string())?;
        Ok((stats.db_hash, stats.rows))
    }

    /// Rebuild a dataset from the store, as the server does after each
    /// commit (the `serve.registry_rebuild` span).
    pub fn reload(&mut self, dataset: &str, store: &Store, t: &mut Tracer) -> Result<(), String> {
        let (ud, hash) = t
            .span("serve.registry_rebuild", || {
                let mut ds = store.load(dataset)?;
                let ud = ds.build()?;
                Ok::<_, qrel_store::StoreError>((ud, ds.entry().db_hash))
            })
            .map_err(|e| e.to_string())?;
        self.add_named(dataset, ud, hash);
        Ok(())
    }

    /// Answer one `/v1/solve` body: the 2xx reply bytes the server must
    /// send, or `Err` with the reason it should have refused the body.
    /// `request_ms` times the request alone; the per-engine breakdown of
    /// a traced replay runs after it.
    pub fn solve(&mut self, body: &[u8], t: &mut Tracer, request: u64) -> Result<Answer, String> {
        let started = Instant::now();
        let root = t.begin_request(request, "request");
        let out = self.answer(body, t);
        t.end_request(root);
        let request_ms = started.elapsed().as_secs_f64() * 1e3;
        let (mut answer, pending) = out?;
        answer.request_ms = request_ms;
        if let (true, Some(p), Some(facts)) = (self.breakdown, pending, answer.facts.as_mut()) {
            let ud = match &p.inline {
                Some(ud) => ud,
                None => {
                    let name = p
                        .dataset
                        .as_deref()
                        .expect("a solve without a spec names a dataset");
                    &self.named[name].ud
                }
            };
            breakdown(ud, &p, t, facts);
        }
        Ok(answer)
    }

    fn answer(&mut self, body: &[u8], t: &mut Tracer) -> Result<(Answer, Option<Pending>), String> {
        let sreq = t.span("serve.request_parse", || {
            parse_solve_request(body, limits())
        })?;
        let mut inline = None;
        let (ud, db_hash, dataset): (&UnreliableDatabase, u64, Option<String>) = match &sreq.db {
            DbRef::Named(name) => {
                let n = self
                    .named
                    .get(name)
                    .ok_or_else(|| format!("unknown dataset {name:?}"))?;
                (&n.ud, n.hash, Some(name.clone()))
            }
            DbRef::Inline(spec) => {
                let built = t
                    .span("prob.spec_build", || spec.build())
                    .map_err(|e| format!("invalid spec: {e}"))?;
                let hash = t.span("serve.db_hash", || canonical_db_hash(&built));
                (&*inline.insert(built), hash, None)
            }
        };
        let formula = t
            .span("logic.query_parse", || {
                qrel_logic::parser::parse_formula(&sreq.query)
            })
            .map_err(|e| format!("bad query: {e}"))?;
        let free = sreq.free.clone().unwrap_or_else(|| formula.free_vars());
        let key = CacheKey {
            db_hash,
            query: formula.to_string(),
            free: free.clone(),
            method: sreq.method.to_string(),
            eps_bits: qrel_serve::canonical_f64_bits(sreq.eps),
            delta_bits: qrel_serve::canonical_f64_bits(sreq.delta),
            seed: sreq.seed,
        };
        if let Some(hit) = t.span("serve.cache_get", || self.cache.get(&key)) {
            let answer = Answer {
                body: hit.as_ref().clone(),
                facts: None,
                request_ms: 0.0,
            };
            return Ok((answer, None));
        }
        let plan = if matches!(sreq.method, Method::Auto | Method::Plan) {
            let schema = schema_fingerprint(ud);
            let (outcome, _) = t.span("serve.plan_lookup", || {
                self.plan_cache
                    .get_or_compile(&key.query, &schema, || qrel_plan::compile(&formula))
            });
            outcome.ok()
        } else {
            None
        };
        let sched = &self.sched;
        t.span("sched.handoff", || {
            let sub = sched
                .submit("default", Priority::Normal, None, ())
                .expect("an idle scheduler accepts a job");
            sched.wait("default", sub.job_id, None)
        });
        let query = FoQuery::with_free_order(formula, free);
        let mut solver = Solver::new()
            .with_method(sreq.method)
            .with_accuracy(sreq.eps, sreq.delta)
            .with_seed(sreq.seed)
            .with_threads(1);
        if let Some(plan) = &plan {
            solver = solver.with_plan_hint(Arc::clone(plan));
        }
        let timeout = Duration::from_millis(sreq.timeout_ms.unwrap_or(DEFAULT_TIMEOUT_MS));
        let budget = Budget::with_deadline_from_now(timeout);
        let report = t
            .span("runtime.solve", || solver.solve(ud, &query, &budget))
            .map_err(|e| format!("solve failed: {e}"))?;
        let solve_span = t.last("runtime.solve");
        let bytes = t.span("serve.reply_serialize", || solve_response_body(&report));
        if is_deterministic(&report) {
            self.cache.insert(key, Arc::new(bytes.clone()));
        }
        let facts = SolveFacts {
            rungs_tried: report.trace.len() as u64,
            worlds: report.worlds,
            samples: report.samples,
            answer_bits: report
                .exact
                .as_ref()
                .map(|r| r.numer().magnitude().bit_length() + r.denom().bit_length())
                .unwrap_or(0),
            ..SolveFacts::default()
        };
        let answer = Answer {
            body: bytes,
            facts: Some(facts),
            request_ms: 0.0,
        };
        let pending = self.breakdown.then_some(Pending {
            inline,
            dataset,
            query,
            report,
            plan,
            seed: sreq.seed,
            eps: sreq.eps,
            delta: sreq.delta,
            solve_span,
        });
        Ok((answer, pending))
    }
}

/// What the per-engine breakdown of one solve needs once the request
/// span has closed.
struct Pending {
    inline: Option<UnreliableDatabase>,
    dataset: Option<String>,
    query: FoQuery,
    report: SolveReport,
    plan: Option<Arc<qrel_plan::Plan>>,
    seed: u64,
    eps: f64,
    delta: f64,
    solve_span: Option<usize>,
}

/// Re-run the engine that answered (and the rung that declined) on the
/// same input, booked as children of the solve span, so the solve's self
/// time is the runtime's own overhead.
fn breakdown(ud: &UnreliableDatabase, p: &Pending, t: &mut Tracer, facts: &mut SolveFacts) {
    let parent = p.solve_span;
    let formula = p.query.formula();
    for step in &p.report.trace {
        if step.note.starts_with("skipped: no safe plan") {
            let _ = t.span_under(parent, "runtime.declined_rung", || {
                qrel_plan::compile(formula)
            });
        }
    }
    match p.report.method {
        Method::Plan => {
            if let Some(plan) = &p.plan {
                facts.plan_nodes = plan.node_count() as u64;
                let _ = t.span_under(parent, "plan.eval", || {
                    qrel_plan::reliability(ud, plan, formula, p.query.free_vars())
                });
            }
        }
        Method::Exact => {
            let _ = t.span_under(parent, "core.exact", || {
                exact_reliability_budgeted_sharded(ud, &p.query, &Budget::unlimited(), 1)
            });
        }
        Method::Fptras => {
            let none = HashMap::new();
            let grounded = t.span_under(parent, "eval.ground", || {
                ground_with_probabilities(ud, formula, &none, DEFAULT_MAX_TERMS)
            });
            if let Ok((g, _)) = &grounded {
                facts.lineage_terms = g.dnf.num_terms() as u64;
            }
            // The runtime's FPTRAS rung on a sentence: one tuple, whose
            // Karp–Luby run takes the sample count for (ε, min(δ, 1/2)),
            // the tuple's seed split from the rung's, and serve's one
            // solver thread.
            if let Ok((g, probs)) = &grounded {
                let kl = KarpLuby::new(&g.dnf, probs);
                let samples = kl.samples_for(p.eps, p.delta.min(0.5));
                // One trace step per rung tried, the answering one last.
                let rung = p.report.trace.len().saturating_sub(1) as u64;
                let seed = split_seed(split_seed(p.seed, rung), 0);
                let _ = t.span_under(parent, "count.fptras", || {
                    kl.run_budgeted_sharded(samples, &Budget::unlimited(), seed, DEFAULT_SHARDS, 1)
                });
            }
        }
        _ => {}
    }
}
