//! Host speed, read by a fixed probe that calls no program code.
//!
//! Other tenants of a shared 2-vCPU host change its speed by a third
//! and more over minutes: ten back-to-back runs of one commit read a hit
//! p50 of 45 µs in the second and 76 µs in the eighth. Quiet readings
//! within a run (see `stats::balanced_low`) skip stretches of seconds,
//! not minutes. So a run also times this probe, and scales its
//! end-to-end times to the host state in which the probe takes
//! [`REF_US`].
//!
//! The probe is [`ROUND_TRIPS`] round trips between two threads over a
//! channel: each wakes the other, as the client, the daemon's reader
//! and its workers wake each other for every request. Over 8 runs of
//! one commit, the log of its reading correlated with the log of the
//! hit p50 at 0.97 and of throughput at -0.95, while a CPU loop and a
//! memory loop moved about half as much as those figures did.
//!
//! The probe runs before every training and set-up pass, and every
//! [`EVERY`] of traffic on the client thread between a response and the
//! next request. At each of these points the program has no work: no
//! request is in flight and no training runs, so its threads wait. The
//! probe is the same code on every commit, so a change to the program
//! moves the scaled figures as it moves the measured ones.
//! `bench.host_probe_us` reports the probe in the per-layer run, so a
//! change that did slow it, such as a thread that spins while idle,
//! shows there.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use perfbench::stats;

/// Probe time, in µs, of the host state the end-to-end times are
/// scaled to: about a quiet reading of a 2-vCPU 2.0 GHz VM.
pub const REF_US: f64 = 1500.0;
/// Round trips one probe reading makes.
const ROUND_TRIPS: u64 = 100;
/// Longest gap between readings during traffic.
const EVERY: Duration = Duration::from_millis(200);

/// The probe readings of one run, and the echo thread they time.
pub struct HostSpeed {
    readings_us: Vec<f64>,
    ping: Option<Sender<u64>>,
    pong: Receiver<u64>,
    echo: Option<JoinHandle<()>>,
    last: Instant,
}

impl HostSpeed {
    /// Starts the echo thread. It ends when the `HostSpeed` is dropped.
    pub fn new() -> HostSpeed {
        let (ping, rx) = mpsc::channel::<u64>();
        let (tx, pong) = mpsc::channel::<u64>();
        let echo = std::thread::spawn(move || {
            while let Ok(v) = rx.recv() {
                if tx.send(v).is_err() {
                    break;
                }
            }
        });
        HostSpeed {
            readings_us: Vec::new(),
            ping: Some(ping),
            pong,
            echo: Some(echo),
            last: Instant::now(),
        }
    }

    /// Takes one probe reading.
    pub fn sample(&mut self) {
        let ping = self.ping.as_ref().expect("the echo thread runs until drop");
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS {
            ping.send(i).expect("the echo thread runs until drop");
            let echoed = self.pong.recv().expect("the echo thread runs until drop");
            debug_assert_eq!(echoed, i);
        }
        self.readings_us.push(stats::us(t0.elapsed()));
        self.last = Instant::now();
    }

    /// Takes one probe reading when the last one is [`EVERY`] old.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// The quiet reading of the run's probes, in µs.
    pub fn probe_us(&self) -> Option<f64> {
        stats::quiet_low(&self.readings_us)
    }

    /// The factor that scales a time measured in this run to the
    /// reference host state: [`REF_US`] over the probe's quiet reading.
    pub fn factor(&self) -> f64 {
        self.probe_us().map_or(1.0, |p| REF_US / p)
    }

    pub fn readings(&self) -> usize {
        self.readings_us.len()
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        // Closing the channel ends the echo thread's loop.
        self.ping = None;
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
