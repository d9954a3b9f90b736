//! A `GET /segments` body that is not what a primary encodes must be an
//! `Err` from `rowstream::decode`: never a panic (this runs in a debug
//! build, so arithmetic overflow counts), never an allocation out of
//! proportion to the body. What decodes must be safe to apply:
//! `PiecewiseLinear::from_segments`, which panics on a gap, takes it, and
//! so does it behind any last row `Shipment::check_follows` accepts.
//!
//! A valid body is truncated at every header field and row boundary ±1,
//! given a lying row count, and mutated (bits flipped, bytes and whole
//! words overwritten); the three refusals a replica makes before writing
//! are checked on their own.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use segdiff_server::rowstream::{decode, Shipment, HEADER, ROW};
use segmentation::{PiecewiseLinear, Segment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, keeping count of the bytes each thread holds
/// and the most it held since [`peak_during`] began.
struct Counting;

fn track(grow: usize, shrink: usize) {
    // `try_with`: a thread's counters are gone while it exits.
    LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        PEAK.try_with(|peak| peak.set(peak.get().max(now))).ok();
    })
    .ok();
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counting
// touches only thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread held
/// meanwhile beyond what it held before.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A chain of `n` segments five minutes apart, starting where `last`
/// ends (at `(0, 20)` without one).
fn chain(rng: &mut XorShift, n: usize, last: Option<&Segment>) -> Vec<Segment> {
    let (mut t, mut v) = last.map_or((0.0, 20.0), |s| (s.t_end, s.v_end));
    (0..n)
        .map(|_| {
            let t_end = t + 300.0 * (1 + rng.below(6)) as f64;
            let v_end = v + (rng.below(2001) as f64 - 1000.0) / 250.0;
            let seg = Segment {
                t_start: t,
                v_start: v,
                t_end,
                v_end,
            };
            (t, v) = (t_end, v_end);
            seg
        })
        .collect()
}

/// `rows` shipped as rows `first_row..` of a primary holding three more.
fn shipment(rows: Vec<Segment>, first_row: u64) -> Shipment {
    Shipment {
        epsilon: 0.2,
        window: 8.0 * 3600.0,
        n_observations: 4_000,
        total_rows: first_row + rows.len() as u64 + 3,
        first_row,
        rows,
    }
}

/// Decodes `body` under the contract and returns what it decoded; an
/// `Ok` is checked safe to apply behind `last`.
fn feed(body: &[u8], last: &Segment, what: &str) -> Option<Shipment> {
    let (decoded, peak) = peak_during(|| {
        catch_unwind(AssertUnwindSafe(|| decode(body)))
            .unwrap_or_else(|_| panic!("decode panicked after {what}"))
    });
    let bound = 2 * body.len() + 1024;
    assert!(
        peak <= bound,
        "decode held {peak} B of a {} B body after {what}",
        body.len()
    );
    let shipment = decoded.ok()?;
    assert_eq!(
        HEADER + ROW * shipment.rows.len(),
        body.len(),
        "{what}: the rows are not the body's"
    );
    let end = shipment.first_row + shipment.rows.len() as u64;
    assert!(end <= shipment.total_rows, "{what}: rows past the total");
    let applied = catch_unwind(|| PiecewiseLinear::from_segments(shipment.rows.clone()));
    assert!(applied.is_ok(), "{what}: a decoded run has a gap");
    let accepted = shipment.check_follows(shipment.epsilon, shipment.window, Some(last));
    if accepted.is_ok() {
        let behind: Vec<Segment> = [*last].into_iter().chain(shipment.rows.clone()).collect();
        let applied = catch_unwind(|| PiecewiseLinear::from_segments(behind));
        assert!(applied.is_ok(), "{what}: an accepted run leaves a gap");
    }
    Some(shipment)
}

#[test]
fn mutated_bodies_are_errors_and_never_panic() {
    let mut rng = XorShift(0x005E_6D1F_F5EE_D5A1);
    let held = chain(&mut rng, 12, None);
    let last = held[held.len() - 1];
    let valid = shipment(chain(&mut rng, 25, Some(&last)), held.len() as u64);
    let body = valid.to_bytes();
    assert_eq!(body.len(), HEADER + 25 * ROW);
    assert_eq!(feed(&body, &last, "nothing"), Some(valid.clone()));
    let caught_up = Shipment {
        total_rows: 12,
        ..empty_at(&valid, 12)
    };
    assert_eq!(
        feed(&caught_up.to_bytes(), &last, "no row"),
        Some(caught_up)
    );

    // Truncated at every header field and row boundary, and a byte
    // either side of each: the count no longer matches, so every cut is
    // an error.
    let fields = [0, 4, 12, 20, 28, 36, 44, HEADER];
    let rows = (1..=25).map(|r| HEADER + r * ROW);
    for b in fields.into_iter().chain(rows) {
        for cut in [b.saturating_sub(1), b, b + 1] {
            let cut = cut.min(body.len());
            let what = format!("truncation at {cut}");
            let decoded = feed(&body[..cut], &last, &what);
            assert_eq!(decoded.is_some(), cut == body.len(), "{what}");
        }
    }

    // A lying row count: any count but the body's is an error, however
    // large; so is a row range past the total, or an empty answer to a
    // reader that is behind.
    for count in [0, 24, 26, 1 << 32, u64::MAX / 32, u64::MAX - 24, u64::MAX] {
        let mut lying = body.clone();
        lying[44..52].copy_from_slice(&count.to_le_bytes());
        assert!(feed(&lying, &last, &format!("count {count}")).is_none());
    }
    for (total, first) in [(36, 12), (0, 12), (u64::MAX, u64::MAX - 3)] {
        let mut lying = body.clone();
        lying[28..36].copy_from_slice(&u64::to_le_bytes(total));
        lying[36..44].copy_from_slice(&u64::to_le_bytes(first));
        let what = format!("rows from {first} of {total}");
        assert!(feed(&lying, &last, &what).is_none(), "{what}");
    }
    let behind = Shipment {
        total_rows: 13,
        ..empty_at(&valid, 12)
    };
    assert!(feed(&behind.to_bytes(), &last, "behind, no row").is_none());

    let (mut decoded, mut refused) = (0u32, 0u32);
    for case in 0..if cfg!(miri) { 20 } else { 4_000 } {
        let mut mutated = body.clone();
        let mut what = Vec::new();
        for _ in 0..1 + rng.below(3) {
            match rng.below(4) {
                0 => {
                    let (at, bit) = (rng.below(mutated.len()), rng.below(8));
                    mutated[at] ^= 1 << bit;
                    what.push(format!("bit {bit} of byte {at} flipped"));
                }
                1 => {
                    let (at, v) = (rng.below(mutated.len()), rng.next() as u8);
                    mutated[at] = v;
                    what.push(format!("byte {at} = {v:#x}"));
                }
                2 => {
                    // A whole word of the header or of a row: a float
                    // that is NaN, infinite, negative zero or huge.
                    let words = (mutated.len() - 4) / 8;
                    let at = 4 + 8 * rng.below(words);
                    let values = [f64::NAN, f64::INFINITY, -0.0, 1e300, -1.0, 0.0];
                    let v = values[rng.below(values.len())].to_bits();
                    mutated[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    what.push(format!("word at {at} = {v:#x}"));
                }
                _ => {
                    let at = 4 + 8 * rng.below(6);
                    let v = rng.next() >> rng.below(64);
                    mutated[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    what.push(format!("header word at {at} = {v}"));
                }
            }
        }
        let what = format!("case {case}: {what:?}");
        match feed(&mutated, &last, &what) {
            Some(_) => decoded += 1,
            None => refused += 1,
        }
    }
    // The mutations must reach both outcomes to mean anything.
    assert!(
        decoded > 200 && refused > 2_000,
        "decoded {decoded}, refused {refused}"
    );
}

/// `valid` with no row, read from row `first`.
fn empty_at(valid: &Shipment, first: u64) -> Shipment {
    Shipment {
        first_row: first,
        rows: Vec::new(),
        ..valid.clone()
    }
}

#[test]
fn a_replica_refuses_what_does_not_follow_its_rows() {
    let mut rng = XorShift(0x0BAD_5EED);
    let held = chain(&mut rng, 8, None);
    let last = held[held.len() - 1];
    let next = shipment(chain(&mut rng, 6, Some(&last)), 8);
    let (epsilon, window) = (next.epsilon, next.window);
    assert_eq!(next.check_follows(epsilon, window, Some(&last)), Ok(()));
    assert_eq!(next.check_follows(epsilon, window, None), Ok(()));

    // A run that is not contiguous within itself never decodes: one ulp
    // between two rows is a gap, and so is a zero of the other sign.
    for row in [3, 5] {
        let mut gapped = next.clone();
        gapped.rows[row].t_start = f64::from_bits(gapped.rows[row].t_start.to_bits() + 1);
        let error = decode(&gapped.to_bytes()).unwrap_err();
        assert!(error.starts_with(&format!("row {} (", 8 + row)), "{error}");
    }
    let mut signed = shipment(chain(&mut rng, 3, None), 0);
    (signed.rows[1].v_end, signed.rows[2].v_start) = (0.0, -0.0);
    let error = decode(&signed.to_bytes()).unwrap_err();
    assert!(error.starts_with("row 2 ("), "{error}");

    // A run that does not continue the sensor's last row, bit for bit.
    for moved in [
        Segment {
            t_end: f64::from_bits(last.t_end.to_bits() - 1),
            ..last
        },
        Segment {
            v_end: last.v_end + 1e-9,
            ..last
        },
    ] {
        let error = next
            .check_follows(epsilon, window, Some(&moved))
            .unwrap_err();
        assert!(
            error.contains("not where the sensor's last row ends"),
            "{error}"
        );
    }

    // An ε or a window that differs from the sensor's, by a bit too.
    for (e, w) in [(0.25, window), (epsilon, 4.0 * 3600.0)] {
        let error = next.check_follows(e, w, Some(&last)).unwrap_err();
        assert!(error.contains("differ from the sensor's"), "{error}");
    }
    let exact = Shipment {
        epsilon: 0.0,
        ..next.clone()
    };
    assert!(exact.check_follows(-0.0, window, Some(&last)).is_err());
    assert_eq!(exact.check_follows(0.0, window, Some(&last)), Ok(()));
}
