//! The open-loop request generator for the serve workloads: one
//! thread issues ticketed `embed_begin` requests on a fixed schedule,
//! whether or not earlier ones have finished, and harvests completions
//! in between. Latency is timed from when each request was due.

use std::time::Duration;

use fusedmm_serve::{ServeError, Ticket};
use fusedmm_sparse::Dense;

use crate::spans::Recorder;
use crate::stats::{percentile, Schedule};

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub rate: f64,
    /// Due-to-done latency of every answered request, in ms.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Duration of each synchronous `embed_begin` call, in µs.
    pub begin_us: Vec<f64>,
    /// From `embed_begin` returning to the harvested response, in ms.
    pub resolve_ms: Vec<f64>,
    /// Most requests in flight at once.
    pub backlog_max: usize,
    /// Requests still in flight when the schedule ended.
    pub backlog_end: usize,
    pub issued: u64,
    /// Requests that ended in a typed error or were abandoned.
    pub errors: u64,
    /// Every `sample_every`-th answered request, and every one begun
    /// while a write was in progress.
    pub samples: Vec<Sample>,
}

/// One sampled answered request.
#[derive(Debug)]
pub struct Sample {
    pub ids: Vec<usize>,
    pub rows: Dense,
    /// The deployment's feature epoch read just before `embed_begin`
    /// and just after it returned. `embed_begin` pins one epoch, so when
    /// the two are equal the response must be that epoch's.
    pub epochs: (u64, u64),
}

impl Phase {
    /// Merge `other` into this phase (slices of one measurement).
    pub fn absorb(&mut self, other: Phase) {
        self.rate = other.rate;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.begin_us.extend(other.begin_us);
        self.resolve_ms.extend(other.resolve_ms);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.backlog_end = self.backlog_end.max(other.backlog_end);
        self.issued += other.issued;
        self.errors += other.errors;
        self.samples.extend(other.samples);
    }

    /// True when the phase met `limit_ms` at its p99, with no failed
    /// request and no backlog left growing at the end of the schedule.
    pub fn met_limit(&self, limit_ms: f64) -> bool {
        let backlog_bound = (2.0 * self.rate * limit_ms / 1e3).max(8.0) as usize;
        self.errors == 0
            && !self.latency_ms.is_empty()
            && percentile(&self.latency_ms, 99.0) <= limit_ms
            && self.backlog_end <= backlog_bound
    }
}

/// Issues one request: `embed_begin` on the deployment under test.
pub type Begin<'a> = dyn Fn(&[usize]) -> Result<Ticket<Dense>, ServeError> + 'a;

/// The deployment under test, as the generator drives it.
pub struct Target<'a> {
    pub begin: &'a Begin<'a>,
    /// The current feature epoch, read around each sampled request's
    /// `embed_begin`.
    pub epoch: &'a dyn Fn() -> u64,
    /// True while a write is in progress. A request begun then races
    /// the write's propagation, so it is sampled whatever its index.
    pub writing: &'a dyn Fn() -> bool,
}

struct Flight {
    index: u64,
    ticket: Ticket<Dense>,
    sent_ns: u64,
    /// For a sampled request: its ids and the epochs around its begin.
    sample: Option<(Vec<usize>, (u64, u64))>,
}

/// Run `rate` requests per second for `seconds`, then wait up to
/// `drain` for the stragglers (abandoning the rest). `next_ids` makes
/// each request; `target` issues it. Spans `serve.embed_begin` and
/// `serve.resolve` go to `rec` when it is enabled.
pub fn open_loop(
    rate: f64,
    seconds: f64,
    drain: Duration,
    sample_every: u64,
    rec: &mut Recorder,
    next_ids: &mut dyn FnMut() -> Vec<usize>,
    target: &Target<'_>,
) -> Phase {
    let sched = Schedule::new(rec.now_ns(), rate);
    let end_ns = sched.start_ns + (seconds * 1e9) as u64;
    let drain_end_ns = end_ns + drain.as_nanos() as u64;
    let mut phase = Phase { rate, ..Phase::default() };
    let mut inflight: Vec<Flight> = Vec::new();
    let mut next = 0u64;
    let mut first_error: Option<ServeError> = None;
    let mut backlog_end: Option<usize> = None;
    loop {
        // Issue everything that is due.
        while sched.due(next) < end_ns && sched.due(next) <= rec.now_ns() {
            let ids = next_ids();
            let keep =
                (sample_every > 0 && next.is_multiple_of(sample_every)) || (target.writing)();
            let epoch = if keep { (target.epoch)() } else { 0 };
            let t0 = rec.now_ns();
            let r = (target.begin)(&ids);
            let t1 = rec.now_ns();
            let epochs = (epoch, if keep { (target.epoch)() } else { 0 });
            rec.record("serve.embed_begin", t0, t1);
            phase.late_ms.push(sched.lateness(next, t0) as f64 / 1e6);
            phase.begin_us.push((t1 - t0) as f64 / 1e3);
            phase.issued += 1;
            match r {
                Ok(ticket) => {
                    inflight.push(Flight {
                        index: next,
                        ticket,
                        sent_ns: t1,
                        sample: keep.then_some((ids, epochs)),
                    });
                    phase.backlog_max = phase.backlog_max.max(inflight.len());
                }
                Err(e) => {
                    phase.errors += 1;
                    first_error.get_or_insert(e);
                }
            }
            next += 1;
        }
        let issuing = sched.due(next) < end_ns;
        if !issuing && backlog_end.is_none() {
            backlog_end = Some(inflight.len());
        }

        // Harvest whatever has finished.
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].ticket.poll() {
                Some(r) => {
                    let f = inflight.remove(i);
                    finish(&mut phase, &sched, rec, f, r, &mut first_error);
                }
                None => i += 1,
            }
        }

        let now = rec.now_ns();
        if !issuing && (inflight.is_empty() || now >= drain_end_ns) {
            break;
        }
        // Park until the next request is due: on the oldest ticket if
        // any is in flight, otherwise on the clock.
        let wake_ns = if issuing { sched.due(next) } else { drain_end_ns };
        if wake_ns <= now {
            continue;
        }
        if let Some(oldest) = inflight.first_mut() {
            let deadline = rec.origin() + Duration::from_nanos(wake_ns);
            if let Some(r) = oldest.ticket.wait_deadline(deadline) {
                let f = inflight.remove(0);
                finish(&mut phase, &sched, rec, f, r, &mut first_error);
            }
        } else {
            std::thread::sleep(Duration::from_nanos(wake_ns - now));
        }
    }
    // Requests still in flight after the drain are abandoned.
    phase.errors += inflight.len() as u64;
    drop(inflight);
    phase.backlog_end = backlog_end.unwrap_or(0);
    if let Some(e) = first_error {
        eprintln!("open loop at {rate:.0}/s: {} failed requests, first: {e}", phase.errors);
    }
    phase
}

fn finish(
    phase: &mut Phase,
    sched: &Schedule,
    rec: &mut Recorder,
    f: Flight,
    r: Result<Dense, ServeError>,
    first_error: &mut Option<ServeError>,
) {
    let done = rec.now_ns();
    match r {
        Ok(rows) => {
            rec.record("serve.resolve", f.sent_ns, done);
            phase.latency_ms.push(sched.latency(f.index, done) as f64 / 1e6);
            phase.resolve_ms.push((done - f.sent_ns) as f64 / 1e6);
            if let Some((ids, epochs)) = f.sample {
                phase.samples.push(Sample { ids, rows, epochs });
            }
        }
        Err(e) => {
            phase.errors += 1;
            first_error.get_or_insert(e);
        }
    }
}
