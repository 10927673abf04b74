//! Live progress output for long-running commands: an in-place
//! terminal progress line (`--live`) and a `/metrics` HTTP endpoint
//! (`--metrics-listen`), both fed from the same lock-free registry the
//! sweep scheduler / simulator workers publish into.
//!
//! The progress line goes to **stderr** so piped stdout (CSV, JSON)
//! stays machine-clean. Each repaint clears the line with `\r\x1b[2K`
//! before redrawing; the final state is left on screen with a newline
//! when the session finishes.

use crate::args::LiveOpts;
use rtsdf::metrics::{MetricsServer, MetricsSnapshot, Registry};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One live-output session: an optional `/metrics` server plus an
/// optional stderr painter thread, both over the same registry.
pub struct LiveSession {
    server: Option<MetricsServer>,
    painter: Option<Painter>,
}

struct Painter {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl LiveSession {
    /// Start the session described by `opts`: bind the `/metrics`
    /// server when `--metrics-listen` was given (announcing the bound
    /// address on stderr), and spawn the progress-line painter when
    /// `--live` was given. `render` turns a registry snapshot plus the
    /// elapsed wall-clock time into one progress line.
    pub fn start(
        opts: &LiveOpts,
        registry: Arc<Registry>,
        render: impl Fn(&MetricsSnapshot, Duration) -> String + Send + 'static,
    ) -> Result<LiveSession, String> {
        Self::start_painting_to(opts, registry, render, std::io::stderr())
    }

    /// [`LiveSession::start`] with the progress line painted to `sink`
    /// instead of stderr.
    fn start_painting_to(
        opts: &LiveOpts,
        registry: Arc<Registry>,
        render: impl Fn(&MetricsSnapshot, Duration) -> String + Send + 'static,
        mut sink: impl Write + Send + 'static,
    ) -> Result<LiveSession, String> {
        // The arg scanner already rejects `--live-interval 0`, but
        // `LiveOpts` is constructible in code too; a zero interval
        // would turn the painter loop into a busy spin on stderr.
        if opts.live && opts.interval_ms == 0 {
            return Err("--live-interval: must be at least 1 ms".to_string());
        }
        let server = match &opts.metrics_listen {
            Some(addr) => {
                let server = MetricsServer::start(addr.as_str(), Arc::clone(&registry))
                    .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
                eprintln!("serving /metrics on http://{}", server.addr());
                Some(server)
            }
            None => None,
        };
        let painter = opts.live.then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let thread_stop = Arc::clone(&stop);
            let interval = Duration::from_millis(opts.interval_ms);
            let handle = std::thread::spawn(move || {
                let started = Instant::now();
                let mut paint = |terminal: bool| {
                    let line = render(&registry.snapshot(), started.elapsed());
                    let end = if terminal { "\n" } else { "" };
                    // One write per repaint, so the line is never split
                    // by other output to the same stream.
                    let _ = sink.write_all(format!("\r\x1b[2K{line}{end}").as_bytes());
                    let _ = sink.flush();
                };
                while !thread_stop.load(Ordering::Acquire) {
                    paint(false);
                    std::thread::sleep(interval);
                }
                // Leave the final state on screen.
                paint(true);
            });
            Painter { stop, handle }
        });
        Ok(LiveSession { server, painter })
    }

    /// Stop the painter (after one final repaint) and shut the server
    /// down. Idempotent through `Drop` as well, but calling it
    /// explicitly sequences the final line before any summary output.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for LiveSession {
    fn drop(&mut self) {
        if let Some(p) = self.painter.take() {
            p.stop.store(true, Ordering::Release);
            let _ = p.handle.join();
        }
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Progress line for `sweep --live`:
/// `sweep 42/256 cells (16%) | 12.3 cells/s | 57 steals | ETA 17s`.
pub fn render_sweep(snap: &MetricsSnapshot, elapsed: Duration) -> String {
    let done = snap.total("rtsdf_sweep_cells_completed") as u64;
    let total = snap.total("rtsdf_sweep_cells_total") as u64;
    let steals = snap.total("rtsdf_sweep_steals") as u64;
    let rate = rate_per_sec(done, elapsed);
    format!(
        "sweep {done}/{total} cells ({}%) | {rate:.1} cells/s | {steals} steals | ETA {}",
        percent(done, total),
        eta(done, total, elapsed),
    )
}

/// Progress line for `stress --live`:
/// `stress 9/36 runs (25%) | 18234 items/s | 5121 completed, 40 shed, 2 dropped | ETA 41s`.
pub fn render_stress(snap: &MetricsSnapshot, elapsed: Duration) -> String {
    let done = snap.total("rtsdf_sim_runs_completed") as u64;
    let total = snap.total("rtsdf_sim_runs_total") as u64;
    let completed = snap.total("rtsdf_sim_items_completed") as u64;
    let shed = snap.total("rtsdf_sim_items_shed") as u64;
    let dropped = snap.total("rtsdf_sim_items_dropped") as u64;
    let items_per_sec = snap.total("rtsdf_sim_items_per_sec");
    format!(
        "stress {done}/{total} runs ({}%) | {items_per_sec:.0} items/s | \
         {completed} completed, {shed} shed, {dropped} dropped | ETA {}",
        percent(done, total),
        eta(done, total, elapsed),
    )
}

fn percent(done: u64, total: u64) -> u64 {
    (100 * done).checked_div(total).unwrap_or(0)
}

fn rate_per_sec(done: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        done as f64 / secs
    } else {
        0.0
    }
}

/// Remaining-time estimate from linear extrapolation of the completion
/// rate so far; `-` until there is something to extrapolate from.
fn eta(done: u64, total: u64, elapsed: Duration) -> String {
    if done == 0 || total == 0 || done >= total {
        return "-".into();
    }
    let rate = rate_per_sec(done, elapsed);
    if rate <= 0.0 {
        return "-".into();
    }
    let secs = (total - done) as f64 / rate;
    if secs >= 60.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!("{}s", secs.ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::LiveOpts;
    use rtsdf::metrics::Registry;

    fn registry_with(cells_done: u64, cells_total: f64) -> Arc<Registry> {
        let mut r = Registry::new(1);
        let done = r.counter("rtsdf_sweep_cells_completed", "done");
        let total = r.gauge("rtsdf_sweep_cells_total", "total");
        r.inc(done, 0, cells_done);
        r.gauge_set(total, 0, cells_total);
        Arc::new(r)
    }

    #[test]
    fn sweep_line_shows_progress_and_eta() {
        let snap = registry_with(64, 256.0).snapshot();
        let line = render_sweep(&snap, Duration::from_secs(8));
        assert!(line.contains("64/256 cells (25%)"), "{line}");
        assert!(line.contains("8.0 cells/s"), "{line}");
        assert!(line.contains("ETA 24s"), "{line}");
    }

    #[test]
    fn eta_handles_empty_and_finished_grids() {
        assert_eq!(eta(0, 10, Duration::from_secs(1)), "-");
        assert_eq!(eta(10, 10, Duration::from_secs(1)), "-");
        assert_eq!(eta(5, 0, Duration::from_secs(1)), "-");
        assert_eq!(eta(1, 121, Duration::from_secs(1)), "2m00s");
    }

    #[test]
    fn stress_line_reads_sim_counters() {
        let mut r = Registry::new(1);
        let runs = r.counter("rtsdf_sim_runs_completed", "runs");
        let total = r.gauge("rtsdf_sim_runs_total", "total");
        let completed = r.counter("rtsdf_sim_items_completed", "items");
        let shed = r.counter("rtsdf_sim_items_shed", "shed");
        r.inc(runs, 0, 3);
        r.gauge_set(total, 0, 12.0);
        r.inc(completed, 0, 4_000);
        r.inc(shed, 0, 17);
        let line = render_stress(&r.snapshot(), Duration::from_secs(2));
        assert!(line.contains("3/12 runs (25%)"), "{line}");
        assert!(
            line.contains("4000 completed, 17 shed, 0 dropped"),
            "{line}"
        );
    }

    #[test]
    fn session_with_painter_and_server_starts_and_finishes() {
        let opts = LiveOpts {
            live: true,
            interval_ms: 5,
            metrics_listen: Some("127.0.0.1:0".into()),
        };
        let registry = registry_with(3, 9.0);
        // Paint into a buffer: the test harness does not capture writes
        // from spawned threads, so stderr would garble its report.
        let painted = SharedBuf::default();
        let session =
            LiveSession::start_painting_to(&opts, registry, render_sweep, painted.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        session.finish();
        let text = String::from_utf8(painted.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("\r\x1b[2Ksweep 3/9 cells (33%)"),
            "{text:?}"
        );
        assert!(
            text.ends_with('\n'),
            "final state stays on screen: {text:?}"
        );
    }

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A zero interval (reachable via a hand-built `LiveOpts`) must be
    /// refused before the painter thread spawns — it would busy-spin.
    #[test]
    fn session_rejects_zero_interval() {
        let opts = LiveOpts {
            live: true,
            interval_ms: 0,
            metrics_listen: None,
        };
        let err = LiveSession::start(&opts, registry_with(0, 0.0), render_sweep)
            .err()
            .expect("zero interval must fail");
        assert!(err.contains("--live-interval"), "{err}");
    }

    #[test]
    fn session_rejects_unbindable_address() {
        let opts = LiveOpts {
            live: false,
            interval_ms: 500,
            metrics_listen: Some("definitely-not-an-address".into()),
        };
        let err = LiveSession::start(&opts, registry_with(0, 0.0), render_sweep)
            .err()
            .expect("bad address must fail");
        assert!(err.contains("--metrics-listen"), "{err}");
    }
}
