//! The load generator for the serving workloads: one generator thread
//! submitting on a fixed schedule (open loop), all at once (closed
//! burst) or as a fixed number of callers that each wait for their
//! answer (closed loop), in-process through `ServeEngine::submit`.
//!
//! Hygiene rules it keeps:
//! - open-loop latency runs from each query's *due* time, so a stall
//!   charges every query it delayed;
//! - how late the generator itself ran (`gen lag`) and whether the
//!   backlog grew are always measured, and a step that breaks either
//!   limit is marked invalid instead of being averaged in;
//! - a refused, dropped or timed-out query is a failure and has no
//!   latency.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use egraph_core::serve::{QueryKind, QueryOutcome, ServeEngine};

use crate::inputs::Scheduled;
use crate::stats::{percentile, slope, windowed_percentile, Percentile};
use crate::trace::tracer;

/// Everything recorded about one submitted query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When `submit` was actually called.
    pub submitted: Instant,
    /// When its outcome reached the client; `None` if it was refused,
    /// dropped or timed out.
    pub arrived: Option<Instant>,
    /// The outcome's checksum (0 without an outcome).
    pub checksum: u64,
    /// Queries that shared its wave.
    pub wave_size: usize,
    /// The product's own stage split of the query's life, seconds.
    pub wait_s: f64,
    /// See [`Self::wait_s`].
    pub exec_s: f64,
    /// See [`Self::wait_s`].
    pub demux_s: f64,
    /// Queries admitted but unanswered when this one was submitted.
    pub inflight: u64,
    /// Admission-queue length when this one was submitted.
    pub queue_depth: u64,
}

impl Sample {
    /// Due-time-to-outcome latency in ms, if an outcome arrived.
    pub fn latency_ms(&self) -> Option<f64> {
        self.arrived
            .map(|a| a.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// One driven step.
#[derive(Debug, Clone)]
pub struct Step {
    /// One entry per scheduled query, in schedule order.
    pub samples: Vec<Sample>,
    /// First submit to last arrival, seconds.
    pub wall_s: f64,
}

/// How long a client waits for an answer before counting it lost.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);

/// Generator lag above which an open-loop step is invalid, ms (p95).
pub const MAX_GEN_LAG_MS: f64 = 1.0;

/// Backlog growth above which an open-loop step is invalid, as a share
/// of the arrival rate.
pub const MAX_BACKLOG_SHARE: f64 = 0.05;

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        // Sleep most of the gap, then spin the last stretch: sleeping to
        // the due time itself overshoots by the timer slack.
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the generator hands a collector for one submitted query.
struct Ticket {
    index: usize,
    submitted: Instant,
    rx: mpsc::Receiver<QueryOutcome>,
}

/// What a collector reports back for every ticket; `outcome` is `None`
/// when the answer was dropped or timed out.
struct Arrival {
    index: usize,
    arrived: Instant,
    outcome: Option<QueryOutcome>,
}

fn kind_slot(kind: QueryKind) -> usize {
    match kind {
        QueryKind::Bfs => 0,
        QueryKind::Sssp => 1,
        QueryKind::KHop => 2,
    }
}

/// Waits for each ticket's outcome in submission order, timestamps it on
/// arrival and reports it to the generator. Queries of one kind complete
/// in submission order (a wave holds one kind, admitted first-in
/// first-out), so one collector per kind sees every arrival as it
/// happens; should the product ever reorder within a kind, latencies
/// read longer, never shorter.
fn collect(tickets: mpsc::Receiver<Ticket>, done: mpsc::Sender<Arrival>, request_base: u64) {
    for ticket in tickets {
        let outcome = ticket.rx.recv_timeout(ANSWER_TIMEOUT).ok();
        let arrived = Instant::now();
        let outcome = outcome.map(|mut outcome| {
            // The answer is checked by checksum; free the values now so
            // a burst does not hold a thousand level arrays.
            outcome.values = egraph_core::serve::QueryValues::Levels(Vec::new());
            let t = tracer();
            if t.enabled() {
                let request = request_base + ticket.index as u64;
                let query = t.record("serve", "query", ticket.submitted, arrived, 0, request);
                let launched = ticket.submitted + Duration::from_secs_f64(outcome.wait_seconds);
                let executed = launched + Duration::from_secs_f64(outcome.exec_seconds);
                let demuxed = executed + Duration::from_secs_f64(outcome.demux_seconds);
                t.record("serve", "wait", ticket.submitted, launched, query, request);
                t.record("algo", "wave kernel", launched, executed, query, request);
                t.record("serve", "demux", executed, demuxed, query, request);
            }
            outcome
        });
        // The generator outlives every collector; a failed send could
        // only mean it panicked, which the scope reports.
        let _ = done.send(Arrival {
            index: ticket.index,
            arrived,
            outcome,
        });
    }
}

/// How a step paces its queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Open loop: query `i` is due `i / rate` seconds after the start,
    /// whatever the engine is doing. Latency runs from the due time.
    Open(f64),
    /// Closed burst: everything is submitted at once and due at the
    /// start.
    Burst,
    /// Closed loop: `clients` callers, each submitting its next query
    /// when the previous one is answered, for `seconds` (or until the
    /// schedule runs out). Latency runs from the submit.
    Closed {
        /// Concurrent callers.
        clients: usize,
        /// How long to keep submitting.
        seconds: f64,
    },
}

/// Drives `schedule` against `engine` from one generator thread.
/// `request_base` numbers the requests of this step in the trace. The
/// returned samples cover the queries that were submitted, in schedule
/// order (a closed loop may stop before the schedule ends).
pub fn drive(engine: &ServeEngine, schedule: &[Scheduled], pace: Pace, request_base: u64) -> Step {
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Arrival>();
        let mut senders = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = mpsc::channel::<Ticket>();
            senders.push(tx);
            let done = done_tx.clone();
            scope.spawn(move || collect(rx, done, request_base));
        }
        drop(done_tx);

        let start = Instant::now();
        let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
        let mut arrivals: Vec<Arrival> = Vec::with_capacity(schedule.len());
        let mut outstanding = 0usize;
        for (index, scheduled) in schedule.iter().enumerate() {
            let due = match pace {
                Pace::Open(rate) => {
                    let due = start + Duration::from_secs_f64(index as f64 / rate);
                    wait_until(due);
                    due
                }
                Pace::Burst => start,
                Pace::Closed { clients, seconds } => {
                    while outstanding >= clients.max(1) {
                        let Ok(arrival) = done_rx.recv() else { break };
                        arrivals.push(arrival);
                        outstanding -= 1;
                    }
                    let now = Instant::now();
                    if (now - start).as_secs_f64() >= seconds {
                        break;
                    }
                    now
                }
            };
            let inflight = engine.inflight();
            let queue_depth = engine.queue_depth();
            let submitted = Instant::now();
            samples.push(Sample {
                due,
                submitted,
                arrived: None,
                checksum: 0,
                wave_size: 0,
                wait_s: 0.0,
                exec_s: 0.0,
                demux_s: 0.0,
                inflight,
                queue_depth,
            });
            if let Ok(rx) = engine.submit(scheduled.query) {
                let ticket = Ticket {
                    index,
                    submitted,
                    rx,
                };
                // A collector only stops once its sender is dropped, so
                // this cannot fail; if it did the query would count as
                // lost, which is the right reading.
                if senders[kind_slot(scheduled.query.kind)]
                    .send(ticket)
                    .is_ok()
                {
                    outstanding += 1;
                }
            }
        }
        drop(senders);
        // Ends when the last collector has reported its last ticket.
        arrivals.extend(done_rx);

        let mut last_arrival = start;
        for a in arrivals {
            let Some(outcome) = a.outcome else { continue };
            let s = &mut samples[a.index];
            s.arrived = Some(a.arrived);
            s.checksum = outcome.checksum;
            s.wave_size = outcome.wave_size;
            s.wait_s = outcome.wait_seconds;
            s.exec_s = outcome.exec_seconds;
            s.demux_s = outcome.demux_seconds;
            last_arrival = last_arrival.max(a.arrived);
        }
        Step {
            samples,
            wall_s: (last_arrival - start).as_secs_f64(),
        }
    })
}

/// The reduced view of one step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Latency median, ms (median over windows of the step).
    pub p50: Percentile,
    /// Latency p95 under the percentile rule, ms (median over windows).
    pub p95: Percentile,
    /// Generator lag p95, ms.
    pub gen_lag_ms_p95: f64,
    /// Least-squares growth of the unanswered backlog, queries/s.
    pub backlog_slope: f64,
    /// Largest admission-queue length seen at a submit.
    pub queue_depth_max: u64,
    /// Waves the step's queries were answered in.
    pub waves: f64,
    /// Answered queries.
    pub answered: usize,
    /// Why the step is invalid, if it is.
    pub invalid: Option<String>,
}

impl Step {
    /// Reduces the step. `rate` is the open-loop rate the validity
    /// limits are relative to (`None` for a burst, which has neither a
    /// schedule to lag behind nor a steady state to keep).
    pub fn stats(&self, rate: Option<f64>) -> StepStats {
        let lat: Vec<f64> = self.samples.iter().filter_map(Sample::latency_ms).collect();
        let lag: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.submitted.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        let first = self.samples.first().map(|s| s.due);
        let backlog: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|s| {
                let t = first.map_or(0.0, |f| {
                    s.submitted.saturating_duration_since(f).as_secs_f64()
                });
                (t, s.inflight as f64)
            })
            .collect();
        let gen_lag_ms_p95 = percentile(&lag, 0.95).value;
        let backlog_slope = slope(&backlog);
        let invalid = rate.and_then(|rate| {
            if gen_lag_ms_p95 > MAX_GEN_LAG_MS {
                Some(format!(
                    "generator lag p95 {gen_lag_ms_p95:.3} ms > {MAX_GEN_LAG_MS} ms"
                ))
            } else if backlog_slope > MAX_BACKLOG_SHARE * rate {
                Some(format!(
                    "backlog grows {backlog_slope:.1} queries/s at {rate} queries/s offered"
                ))
            } else {
                None
            }
        });
        StepStats {
            p50: windowed_percentile(&lat, 0.5),
            p95: windowed_percentile(&lat, 0.95),
            gen_lag_ms_p95,
            backlog_slope,
            queue_depth_max: self
                .samples
                .iter()
                .map(|s| s.queue_depth)
                .max()
                .unwrap_or(0),
            // Each of a wave's `wave_size` queries contributes its share.
            waves: self
                .samples
                .iter()
                .filter(|s| s.wave_size > 0)
                .map(|s| 1.0 / s.wave_size as f64)
                .sum(),
            answered: lat.len(),
            invalid,
        }
    }

    /// Kernel seconds summed over the step's waves (each wave counted
    /// once, however many queries shared it).
    pub fn kernel_seconds(&self) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.wave_size > 0)
            .map(|s| s.exec_s / s.wave_size as f64)
            .sum()
    }
}
