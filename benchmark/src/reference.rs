//! The reference kernel: a fixed computation of the benchmark's own, run
//! in a slice of every read round, against which the timings of the same
//! round are normalised.
//!
//! The machines this benchmark runs on are small guests on shared hosts.
//! Their speed moves by a quarter and more for seconds to minutes at a
//! time, for everything that touches memory, and all operation classes move
//! together (the run-to-run correlation between the four read classes is
//! above 0.9); the run length the driver allows cannot average that out.
//! What is steady is the *ratio* between two computations that run
//! interleaved at a grain of milliseconds. So every round times this kernel
//! beside the program, and a reported time is the measured time multiplied
//! by `NOMINAL_NS / measured reference`: what the operation would have
//! taken had the machine run the reference at its nominal speed. The
//! kernel never changes with the program, so the factor is the same for
//! two commits measured on the same machine state.
//!
//! The kernel has the shape of the work it stands beside: label-list
//! intersections over a CSR of a few hundred KiB reached at random, like a
//! 2-hop probe. Ten runs of `query-inex` on ten seeds, 20 s each, on a
//! busy afternoon of the reference box: the per-run means of the four read
//! classes spread (first to third quartile over the median) by 11–21% as
//! measured and by 2–6% normalised round by round.
//!
//! An operation too long to sit inside a round — a build, a set-up, a
//! §6.2 deletion — is put in a [`Bracket`]: one reading before it, one
//! after it, normalised by their mean.

use std::time::{Duration, Instant};

/// Nanoseconds per reference probe the reported times are normalised to:
/// the median reading on the reference box (2 vCPUs of a shared
/// `Xeon @ 2.10GHz` host; single rounds read 110 to 540). Only a scale: it
/// makes a normalised time read like a time.
pub const NOMINAL_NS: f64 = 180.0;

/// Length of one reading before or after a bracketed operation.
const BRACKET_SLICE: Duration = Duration::from_millis(10);

const NODES: usize = 16_384;
const CENTRES: u32 = 4_096;
const BATCH: usize = 1_024;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

pub struct Reference {
    offsets: Vec<u32>,
    labels: Vec<u32>,
    draw: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut offsets = Vec::with_capacity(NODES + 1);
        let mut labels = Vec::new();
        offsets.push(0);
        for _ in 0..NODES {
            let len = 4 + (xorshift(&mut state) % 17) as usize;
            let mut list: Vec<u32> = (0..len)
                .map(|_| (xorshift(&mut state) % u64::from(CENTRES)) as u32)
                .collect();
            list.sort_unstable();
            list.dedup();
            labels.extend(list);
            offsets.push(labels.len() as u32);
        }
        Reference {
            offsets,
            labels,
            draw: 0x2545_f491_4f6c_dd1d,
        }
    }

    fn list(&self, node: usize) -> &[u32] {
        &self.labels[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// Do the sorted lists of two random nodes share a label?
    fn probe(&mut self) -> bool {
        let r = xorshift(&mut self.draw);
        let (a, b) = (
            self.list(r as usize % NODES),
            self.list((r >> 32) as usize % NODES),
        );
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Runs the kernel for at least `slice`; nanoseconds per probe.
    pub fn run(&mut self, slice: Duration) -> f64 {
        let start = Instant::now();
        let mut probes = 0usize;
        let mut hits = 0usize;
        loop {
            for _ in 0..BATCH {
                hits += usize::from(self.probe());
            }
            probes += BATCH;
            let elapsed = start.elapsed();
            if elapsed >= slice {
                std::hint::black_box(hits);
                return elapsed.as_nanos() as f64 / probes as f64;
            }
        }
    }
}

/// Normalises operations that are too long for a read round: a reference
/// reading before and after each, consecutive operations sharing the one
/// between them.
pub struct Bracket {
    before: f64,
}

impl Bracket {
    /// Takes the reading before the first operation.
    pub fn open(reference: &mut Reference) -> Self {
        Bracket {
            before: reference.run(BRACKET_SLICE),
        }
    }

    /// Takes the reading after the operation that just ended (which is
    /// also the one before the next) and returns what that operation's
    /// time is multiplied by.
    pub fn close(&mut self, reference: &mut Reference) -> f64 {
        let after = reference.run(BRACKET_SLICE);
        let factor = 2.0 * NOMINAL_NS / (self.before + after);
        self.before = after;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_does_work() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.labels, b.labels);
        assert!(a.labels.len() > NODES * 4);
        let hits = |r: &mut Reference| (0..4096).filter(|_| r.probe()).count();
        let (ha, hb) = (hits(&mut a), hits(&mut b));
        assert_eq!(ha, hb);
        assert!(ha > 0 && ha < 4096);
        assert!(a.run(Duration::from_millis(1)) > 0.0);
    }

    #[test]
    fn a_bracket_normalises_by_the_readings_around_the_operation() {
        let mut r = Reference::new();
        let mut bracket = Bracket::open(&mut r);
        let first = bracket.before;
        let factor = bracket.close(&mut r);
        let second = bracket.before;
        assert!((factor - 2.0 * NOMINAL_NS / (first + second)).abs() < 1e-12);
        // The machine this test runs on is within a factor of 20 of the
        // reference box.
        assert!(factor > 0.05 && factor < 20.0, "{factor}");
    }
}
