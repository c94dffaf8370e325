//! The trace clock: one cheap timestamp per trace record.
//!
//! A trace record needs a timestamp, and on a framework-bound job the
//! timestamp *is* the record's cost: `Instant::now()` goes through the
//! vDSO's `clock_gettime` (counter read, seqlock, scaling — ~30 ns on
//! the reference host) while writing the record itself takes ~10 ns. So
//! the recorder stamps records with raw *ticks* and converts to
//! microseconds only when somebody reads them (a dump):
//!
//! * on x86-64 Linux hosts whose kernel itself keeps time by the TSC
//!   (`current_clocksource` is `tsc`, i.e. the kernel has verified the
//!   counter is invariant and synchronised across cores) a tick is one
//!   `RDTSC` read — about half the cost of the vDSO call;
//! * everywhere else a tick is a nanosecond of [`Instant`] time.
//!
//! The TSC rate is never assumed: `Scale::now` divides the `Instant`
//! time elapsed since the clock was created by the ticks elapsed over the
//! same interval, so the estimate sharpens the longer the process runs.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

struct Clock {
    /// True when ticks are TSC reads (else nanoseconds since `start`).
    tsc: bool,
    /// Tick value at `start`.
    ticks0: u64,
    start: Instant,
}

static CLOCK: OnceLock<Clock> = OnceLock::new();

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn kernel_trusts_tsc() -> bool {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .is_ok_and(|s| s.trim() == "tsc")
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn kernel_trusts_tsc() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC has no memory operands and no preconditions; every
    // x86-64 CPU implements it. It is only reached when the kernel's own
    // clocksource is the TSC, in which case the vDSO `clock_gettime`
    // every `Instant::now()` runs executes the same instruction in user
    // mode — so it is not trapped (CR4.TSD clear) in this process.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn rdtsc() -> u64 {
    unreachable!("the TSC clock is only selected on x86-64")
}

fn clock() -> &'static Clock {
    CLOCK.get_or_init(|| {
        let tsc = kernel_trusts_tsc();
        let start = Instant::now();
        Clock {
            tsc,
            ticks0: if tsc { rdtsc() } else { 0 },
            start,
        }
    })
}

/// The current tick count. Monotone per thread, and across threads to
/// the extent the kernel's own clock is.
#[inline]
pub(crate) fn ticks() -> u64 {
    let clock = clock();
    if clock.tsc {
        rdtsc()
    } else {
        let since = clock.start.elapsed();
        since.as_secs() * 1_000_000_000 + u64::from(since.subsec_nanos())
    }
}

/// Which counter backs `ticks`: `"tsc"` or `"monotonic"`. Benches
/// record it next to their numbers — the per-record cost differs by the
/// price of one `clock_gettime`.
pub fn source() -> &'static str {
    if clock().tsc {
        "tsc"
    } else {
        "monotonic"
    }
}

/// A ticks → microseconds conversion, valid for ticks read before it was
/// taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    ticks0: u64,
    ns_per_tick: f64,
}

impl Scale {
    /// Calibrates against the `Instant` time elapsed since the clock was
    /// created. A reader that asks within the first 200 µs of the clock's
    /// life waits that interval out, which bounds the error of dividing
    /// two nearly simultaneous clock reads at well under 0.1 %.
    pub(crate) fn now() -> Scale {
        let clock = clock();
        if !clock.tsc {
            return Scale {
                ticks0: 0,
                ns_per_tick: 1.0,
            };
        }
        loop {
            let elapsed = clock.start.elapsed();
            let ticks = rdtsc().saturating_sub(clock.ticks0);
            if elapsed >= Duration::from_micros(200) && ticks > 0 {
                return Scale {
                    ticks0: clock.ticks0,
                    ns_per_tick: elapsed.as_nanos() as f64 / ticks as f64,
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Microseconds between the clock's creation and tick count `ticks`.
    pub(crate) fn since_start_us(&self, ticks: u64) -> u64 {
        self.span_us(ticks.saturating_sub(self.ticks0))
    }

    /// Microseconds a difference of two tick counts spans.
    pub(crate) fn span_us(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick / 1_000.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_and_scale_to_wall_time() {
        let before = ticks();
        let wall = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let after = ticks();
        let slept_us = wall.elapsed().as_micros() as u64;
        assert!(after > before);
        let scale = Scale::now();
        let measured = scale.span_us(after - before);
        // The tick span was taken inside the `Instant` span, so it can
        // only read shorter, and not by more than scheduling noise.
        assert!(
            measured <= slept_us + 50 && measured + 2_000 >= slept_us,
            "{measured} us by ticks vs {slept_us} us by Instant ({})",
            source()
        );
        assert!(scale.since_start_us(after) >= scale.since_start_us(before) + measured - 1);
    }
}
