//! Open-loop sending: request `i` is due at a fixed offset from the start
//! whatever happened to earlier requests, and its latency runs from when
//! it was due — so a stall is charged to every request queued behind it,
//! not hidden by a sender that slowed down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the phase start.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Evenly spaced due times for `rate` requests per second over `seconds`.
pub fn schedule(rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    (0..n).map(|i| i as f64 / rate).collect()
}

/// Sends request `index_base + i` at `start + due[i]` on one thread per
/// connection state in `conns`; `send` returns whether the answer was a
/// success. Samples come back in due order.
pub fn run<C, F>(
    start: Instant,
    due: &[f64],
    index_base: usize,
    conns: Vec<C>,
    send: F,
) -> Vec<Sample>
where
    C: Send,
    F: Fn(&mut C, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![None; due.len()]);
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, out, send) = (&next, &out, &send);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= due.len() {
                    break;
                }
                let at = start + Duration::from_secs_f64(due[i]);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let sent = start.elapsed().as_secs_f64();
                let ok = send(&mut conn, index_base + i);
                let done = start.elapsed().as_secs_f64();
                out.lock().expect("samples poisoned")[i] = Some(Sample {
                    due: due[i],
                    sent,
                    done,
                    ok,
                });
            });
        }
    });
    out.into_inner()
        .expect("samples poisoned")
        .into_iter()
        .map(|s| s.expect("every due request is sent"))
        .collect()
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median over `slices` of each slice's `p` latency percentile: a
/// slow spell moves one slice, not the reported figure.
pub fn sliced_percentile(slices: &[Vec<Sample>], p: f64) -> f64 {
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let latency: Vec<f64> = s.iter().map(Sample::latency_ms).collect();
            percentile(&latency, p)
        })
        .collect();
    median(&per)
}

/// One offered rate's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub lag_p99_ms: f64,
    pub failed: usize,
    /// How far the sender fell behind over the phase: the median lateness
    /// of its last quarter minus that of its first quarter, in ms.
    pub growth_ms: f64,
}

impl Rung {
    /// The backlog grew: the sender fell `BACKLOG_MS` further behind.
    pub fn growing(&self) -> bool {
        self.growth_ms > BACKLOG_MS
    }
}

pub const BACKLOG_MS: f64 = 10.0;

pub fn summarize(rate: f64, samples: &[Sample]) -> Rung {
    let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let lateness: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
    let quarter = (lateness.len() / 4).max(1).min(lateness.len());
    let head = median(&lateness[..quarter]);
    let tail = median(&lateness[lateness.len() - quarter..]);
    Rung {
        rate,
        p50_ms: percentile(&latency, 0.5),
        p99_ms: percentile(&latency, 0.99),
        lag_p99_ms: percentile(&lateness, 0.99),
        failed: samples.iter().filter(|s| !s.ok).count(),
        growth_ms: tail - head,
    }
}

/// Highest sustainable rate on an ascending ladder: the last rung before
/// the first one that misses — p99 over `limit_ms`, a failure, or a
/// growing backlog — interpolated linearly in backlog growth toward the
/// missing rung. `None` when even the lowest rung misses.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    let meets = |r: &Rung| r.p99_ms <= limit_ms && !r.growing() && r.failed == 0;
    let passing = rungs.iter().take_while(|r| meets(r)).count();
    if passing == 0 {
        return None;
    }
    let last = rungs[passing - 1];
    match rungs.get(passing) {
        Some(next) if next.growing() && next.growth_ms > last.growth_ms => {
            let f = (BACKLOG_MS - last.growth_ms) / (next.growth_ms - last.growth_ms);
            Some(last.rate + f.clamp(0.0, 1.0) * (next.rate - last.rate))
        }
        _ => Some(last.rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One connection, a request every millisecond; the stub stalls
        // the sixth answer for 80 ms.
        let due = schedule(1000.0, 0.2);
        let start = Instant::now();
        let samples = run(start, &due, 0, vec![()], |_, i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(80));
            }
            true
        });
        let stall_end = samples[5].done;
        assert!(stall_end >= samples[5].due + 0.080);
        for s in &samples[6..60] {
            assert!(s.due < stall_end);
            // Sent only after the stall, and charged from its due time.
            assert!(s.sent >= stall_end);
            assert!(s.latency_ms() >= (stall_end - s.due) * 1e3);
        }
        let rung = summarize(1000.0, &samples);
        assert!(rung.p99_ms >= 40.0, "stall must reach the tail: {rung:?}");
        assert!(rung.lag_p99_ms >= 40.0);
        // A closed-loop timer would have seen ~0 ms for request 6.
        assert!(samples[6].latency_ms() >= 70.0);
    }

    #[test]
    fn sliced_percentiles_shrug_off_one_slow_slice() {
        let sample = |due: f64, ms: f64| Sample {
            due,
            sent: due,
            done: due + ms / 1e3,
            ok: true,
        };
        let slice = |ms: f64| (0..100).map(|i| sample(i as f64 / 100.0, ms)).collect();
        let slices: Vec<Vec<Sample>> = vec![slice(50.0), slice(1.0), slice(1.0)];
        let all: Vec<f64> = slices.concat().iter().map(Sample::latency_ms).collect();
        assert!(percentile(&all, 0.9) > 49.0);
        assert!((sliced_percentile(&slices, 0.9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_rate_interpolates_and_respects_backlog() {
        let rung = |rate, p99_ms, growth_ms| Rung {
            rate,
            p50_ms: 1.0,
            p99_ms,
            lag_p99_ms: 0.0,
            failed: 0,
            growth_ms,
        };
        // Growth crosses the 10 ms threshold a quarter of the way from
        // 200 to 300 requests per second.
        let ladder = [
            rung(100.0, 2.0, 0.0),
            rung(200.0, 4.0, 2.0),
            rung(300.0, 90.0, 34.0),
        ];
        let r = max_rate(&ladder, 25.0).unwrap();
        assert!((r - 225.0).abs() < 1e-9, "{r}");
        // A rung over the latency limit without a backlog stops the
        // ladder at the rung below it.
        let slow = [rung(100.0, 2.0, 0.0), rung(200.0, 40.0, 1.0)];
        assert_eq!(max_rate(&slow, 25.0), Some(100.0));
        assert_eq!(max_rate(&[rung(100.0, 30.0, 0.0)], 25.0), None);
    }
}
