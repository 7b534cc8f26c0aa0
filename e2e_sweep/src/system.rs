//! The system under test — one `vdm_serve::Server` with program defaults
//! and one session — and its *twin*: a `Database` built from the same
//! seed, on which the traced pass replays each statement layer by layer
//! through the crates' public functions.

use crate::data;
use crate::spans::Recorder;
use crate::workloads::{self, Op, Scale, Workload, CACHED_VIEWS, POST_LINES, SHAPES};
use std::collections::HashMap;
use std::time::Instant;
use vdm_cache::{multiset_digest, CacheMode, MaintainOutcome};
use vdm_core::{execute_select, CacheOutcome, Database, EngineStats, QueryEnv, ResolvedPlan};
use vdm_exec::{with_worker_pool, WorkerPool};
use vdm_obs::{names, MetricsRegistry};
use vdm_plan::plan_stats;
use vdm_serve::{Prepared, Server, Session};
use vdm_sql::{SelectStmt, Statement};
use vdm_storage::Batch;
use vdm_types::{Result, SplitMix64, Value, VdmError};

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
}

/// Server, session, prepared statements and the seeded op sequence.
pub struct System {
    pub workload: Workload,
    pub server: Server,
    pub session: Session,
    /// By shape index; `None` for shapes this workload does not prepare.
    prepared: Vec<Option<Prepared>>,
    /// The read operations, in execution order: the seeded grid, cycled.
    pub ops: Vec<Op>,
    pub loaded_rows: usize,
    /// `htap_mixed` write state.
    pub posting: Posting,
}

/// Bookkeeping of `htap_mixed`'s writes: the batch generator and the
/// row counts verification (c) checks.
pub struct Posting {
    rng: SplitMix64,
    pub next_batch: usize,
    pub posted_rows: usize,
    pub reversed_rows: usize,
}

impl Posting {
    fn new(seed: u64) -> Posting {
        // A different stream than the op shuffle uses.
        Posting {
            rng: SplitMix64::seed_from_u64(seed ^ 0x5EED_B00C),
            next_batch: 0,
            posted_rows: 0,
            reversed_rows: 0,
        }
    }

    /// The next batch's rows.
    pub fn next(&mut self) -> Vec<Vec<Value>> {
        let rows = data::posting_batch(&mut self.rng, self.next_batch, POST_LINES);
        self.next_batch += 1;
        rows
    }
}

/// An existing document per (company, year), read off the loaded journal:
/// the document a user would drill into. `pick` varies the choice by seed.
fn existing_docs(db: &Database, pick: u64) -> Result<HashMap<(i64, i64), i64>> {
    let journal = db.engine().scan("acdoca", db.engine().snapshot())?;
    // Columns 1..=3 are company, fiscal year, document.
    let [company, year, doc] = [1, 2, 3].map(|c| &journal.columns[c]);
    let mut docs: HashMap<(i64, i64), Vec<i64>> = HashMap::new();
    for i in 0..journal.num_rows() {
        if let (Value::Int(c), Value::Int(y), Value::Int(d)) =
            (company.get(i), year.get(i), doc.get(i))
        {
            docs.entry((c, y)).or_default().push(d);
        }
    }
    Ok(docs.into_iter().map(|(k, v)| (k, v[pick as usize % v.len()])).collect())
}

impl System {
    /// Generates and loads the data, merges every table, registers the
    /// browser view, materializes the cached views, prepares the
    /// statements and derives the op sequence. Everything `setup_s` times
    /// except the warm-up, which [`System::warm_up`] does.
    pub fn set_up(cfg: &Config) -> Result<System> {
        let workload = cfg.workload;
        let db =
            data::build_database(cfg.scale.journal_rows, cfg.seed, workload.plan_cache_capacity())?;
        let docs = existing_docs(&db, cfg.seed)?;
        let server = Server::from_database(db);
        let session = server.session();
        if workload == Workload::HtapMixed {
            for (name, sql, dynamic) in CACHED_VIEWS {
                let mode = if dynamic { CacheMode::Dynamic } else { CacheMode::Static };
                server.create_cached_view(name, sql, mode)?;
            }
        }
        let grid = workloads::read_grid(workload, cfg.seed, &|c, y| {
            docs.get(&(c, y)).copied().unwrap_or(1)
        });
        let ops: Vec<Op> = grid.iter().cycle().take(cfg.scale.primary_ops()).cloned().collect();
        let mut prepared: Vec<Option<Prepared>> = SHAPES.iter().map(|_| None).collect();
        if workload.prepared() {
            for op in &ops {
                if prepared[op.shape].is_none() {
                    prepared[op.shape] = Some(session.prepare(SHAPES[op.shape].sql)?);
                }
            }
        }
        Ok(System {
            workload,
            server,
            session,
            prepared,
            ops,
            loaded_rows: cfg.scale.journal_rows,
            posting: Posting::new(cfg.seed),
        })
    }

    /// Runs every statement shape three times — past the first execution's
    /// lazy work and the one-round feedback re-optimization — and, on
    /// `htap_mixed`, three posting cycles (which a twin must see too).
    pub fn warm_up(&mut self, twin: Option<&Twin>) -> Result<()> {
        let mut seen = vec![0usize; SHAPES.len()];
        for op in &self.ops {
            seen[op.shape] += 1;
            if seen[op.shape] <= 3 {
                self.execute(op)?;
            }
        }
        if self.workload == Workload::HtapMixed {
            for _ in 0..3 {
                let rows = self.posting.next();
                if let Some(twin) = twin {
                    twin.replay_post(&mut Recorder::new(false), rows.clone())?;
                }
                self.post(rows)?;
                self.read_dynamic_views()?;
            }
        }
        Ok(())
    }

    /// The real serve call of a read operation.
    pub fn execute(&self, op: &Op) -> Result<Batch> {
        match &self.prepared[op.shape] {
            Some(p) => p.execute(&op.params),
            None => self.session.query(&op.inlined_sql()),
        }
    }

    /// Posts one batch. SQL `INSERT` cannot carry a DATE literal today,
    /// so posts go through the storage engine the server shares.
    pub fn post(&mut self, rows: Vec<Vec<Value>>) -> Result<usize> {
        let n = self.server.engine().insert("acdoca", rows)?;
        self.posting.posted_rows += n;
        Ok(n)
    }

    /// Reads every dynamic cached view (each maintains itself first).
    pub fn read_dynamic_views(&self) -> Result<()> {
        for view in workloads::dynamic_views() {
            self.session.read_cached(view)?;
        }
        Ok(())
    }

    /// Reverses posting batch `batch`: deletes its document's lines.
    pub fn reverse(&mut self, batch: usize) -> Result<usize> {
        let doc = Value::Int(data::posted_doc(batch));
        let n = self.server.engine().delete_where("acdoca", &|row| row[3] == doc)?;
        self.posting.reversed_rows += n;
        Ok(n)
    }
}

/// The twin database and what the staged replay needs beside it.
pub struct Twin {
    pub db: Database,
    /// Executions of the replay run on a pool as wide as the server's.
    pool: WorkerPool,
    /// Parsed statement and canonical shape per prepared shape — what
    /// `Session::prepare` keeps.
    stmts: Vec<Option<(SelectStmt, String)>>,
}

/// Sums of the process-wide counters an execution adds to.
#[derive(Clone, Copy)]
struct ExecCounters {
    rows_scanned: u64,
    morsel_steals: u64,
}

impl ExecCounters {
    fn read() -> ExecCounters {
        let reg = MetricsRegistry::global();
        ExecCounters {
            rows_scanned: reg.counter(names::ROWS_SCANNED_TOTAL),
            morsel_steals: reg.counter(names::MORSEL_STEALS_TOTAL),
        }
    }
}

impl Twin {
    /// Builds the twin of `sys` from the same seed. Its cached views
    /// reuse the server's optimized plans, so both maintain the same
    /// delta plans.
    pub fn set_up(cfg: &Config, sys: &System) -> Result<Twin> {
        let db = data::build_database(
            cfg.scale.journal_rows,
            cfg.seed,
            cfg.workload.plan_cache_capacity(),
        )?;
        if cfg.workload == Workload::HtapMixed {
            for (name, _, _) in CACHED_VIEWS {
                let view = sys.server.cached_view(name).expect("created at set-up");
                db.view_cache().register(name, view.plan().clone(), view.mode(), db.engine())?;
            }
        }
        let mut stmts: Vec<Option<(SelectStmt, String)>> = SHAPES.iter().map(|_| None).collect();
        if cfg.workload.prepared() {
            for op in &sys.ops {
                if stmts[op.shape].is_none() {
                    let sql = SHAPES[op.shape].sql;
                    let (Statement::Select(sel), _) = vdm_sql::parse_one_with_params(sql)? else {
                        return Err(VdmError::Bind("the shapes are SELECTs".into()));
                    };
                    stmts[op.shape] = Some((sel, vdm_sql::canonical_shape(sql)?));
                }
            }
        }
        let pool = WorkerPool::new(db.parallelism().threads.max(1));
        Ok(Twin { db, pool, stmts })
    }

    fn env(&self) -> QueryEnv<'_> {
        QueryEnv {
            state: self.db.state(),
            engine: self.db.engine(),
            plan_cache: self.db.plan_cache(),
            parallel: self.db.parallelism(),
        }
    }

    /// Replays a read operation layer by layer, one child span per layer
    /// call: `core.select_plan` → `exec.execute` for a prepared statement;
    /// `sql.parse` → `sql.bind` → `optimizer.optimize` →
    /// `core.select_plan` → `exec.execute` for ad-hoc SQL (where
    /// `core.select_plan` is what core adds to a miss: plan digest and
    /// per-node estimates). Returns the result's digest.
    pub fn replay_read(&self, rec: &mut Recorder, op: &Op) -> Result<u64> {
        let resolved = match &self.stmts[op.shape] {
            Some((sel, shape)) => {
                let env = self.env();
                let (resolved, span) =
                    rec.time("core.select_plan", || env.select_plan(sel, Some(shape), &op.params));
                let resolved = resolved?;
                rec.attr(span, "cache", resolved.outcome.label());
                resolved
            }
            None => self.replay_planning(rec, &op.inlined_sql())?,
        };
        let stats = plan_stats(&resolved.plan);
        let before = ExecCounters::read();
        let (batch, span) = rec.time("exec.execute", || {
            with_worker_pool(&self.pool, || {
                execute_select(&resolved, &op.params, self.db.engine(), self.db.parallelism())
            })
        });
        let batch = batch?;
        let after = ExecCounters::read();
        rec.attr(span, "rows_out", batch.num_rows());
        rec.attr(span, "rows_scanned", after.rows_scanned - before.rows_scanned);
        rec.attr(span, "morsel_steals", after.morsel_steals - before.morsel_steals);
        rec.attr(span, "nodes_out", stats.nodes);
        rec.attr(span, "joins_out", stats.joins);
        Ok(multiset_digest(&batch))
    }

    /// The planning layers of an ad-hoc statement, as `Session::query`
    /// with an empty plan cache runs them.
    fn replay_planning(&self, rec: &mut Recorder, sql: &str) -> Result<ResolvedPlan> {
        let (parsed, _) = rec.time("sql.parse", || -> Result<(Statement, String)> {
            Ok((vdm_sql::parse_one(sql)?, vdm_sql::canonical_shape(sql)?))
        });
        let (Statement::Select(sel), shape) = parsed? else {
            return Err(VdmError::Bind("the shapes are SELECTs".into()));
        };
        let state = self.db.state();
        let (bound, _) =
            rec.time("sql.bind", || state.binder().with_param_types(&[]).bind_select(&sel));
        let bound = bound?;
        let engine = self.db.engine();
        let (optimized, span) = rec.time("optimizer.optimize", || {
            let stats = EngineStats::new(engine);
            state.optimizer.optimize_traced_with(&bound, Some(&stats), None)
        });
        let (plan, trace) = optimized?;
        rec.attr(span, "rewrites_fired", trace.hit_counts().values().sum::<u64>());
        rec.attr(span, "nodes_in", plan_stats(&bound).nodes);
        let ((digest, estimates), _) = rec.time("core.select_plan", || {
            let stats = EngineStats::new(engine);
            let opts = state.optimizer.profile().derive_options();
            (
                vdm_plan::plan_digest_canonical(&plan),
                vdm_core::feedback::estimates_with(&plan, &stats, opts, None),
            )
        });
        Ok(ResolvedPlan { plan, trace, outcome: CacheOutcome::Miss, digest, shape, estimates })
    }

    /// Replays a posting cycle: `storage.insert`, then one
    /// `cache.maintain` per dynamic view.
    pub fn replay_post(&self, rec: &mut Recorder, rows: Vec<Vec<Value>>) -> Result<()> {
        let n = rows.len();
        let (inserted, span) =
            rec.time("storage.insert", || self.db.engine().insert("acdoca", rows));
        inserted?;
        rec.attr(span, "rows", n);
        self.replay_maintain(rec)
    }

    /// One `cache.maintain` span per dynamic view, labelled with what
    /// maintenance did.
    pub fn replay_maintain(&self, rec: &mut Recorder) -> Result<()> {
        for name in workloads::dynamic_views() {
            let view = self.db.cached_view(name).expect("registered at set-up");
            let (outcome, span) = rec.time("cache.maintain", || view.maintain(self.db.engine()));
            let label = match outcome? {
                MaintainOutcome::Fresh => "fresh",
                MaintainOutcome::Incremental { .. } => "incremental",
                MaintainOutcome::Full => "full",
            };
            rec.attr(span, "view", name);
            rec.attr(span, "outcome", label);
        }
        Ok(())
    }

    pub fn replay_reverse(&self, rec: &mut Recorder, batch: usize) -> Result<()> {
        let doc = Value::Int(data::posted_doc(batch));
        let (deleted, span) = rec.time("storage.delete", || {
            self.db.engine().delete_where("acdoca", &|row| row[3] == doc)
        });
        rec.attr(span, "rows", deleted?);
        self.replay_maintain(rec)
    }

    pub fn replay_refresh(&self, rec: &mut Recorder) -> Result<()> {
        rec.time("cache.refresh", || self.db.refresh_cached_views()).0.map(|_| ())
    }

    pub fn replay_merge(&self, rec: &mut Recorder) -> Result<()> {
        rec.time("storage.merge", || self.db.engine().merge_delta("acdoca")).0
    }

    /// Median wall time of a full scan of the journal: the floor under
    /// every `exec.execute`.
    pub fn scan_ms(&self) -> Result<f64> {
        let engine = self.db.engine();
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let rows = engine.scan("acdoca", engine.snapshot())?.num_rows();
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(rows);
        }
        Ok(crate::stats::median(&samples))
    }
}
