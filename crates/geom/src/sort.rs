//! The stable `t_start` order of a store or a query batch: an LSD radix
//! sort of (key, position) pairs, then for a store the permutation.

use crate::Segment;

/// Bits per radix digit: four passes cover a 64-bit key.
const DIGIT_BITS: u32 = 16;
const RADIX: usize = 1 << DIGIT_BITS;
const PASSES: usize = (u64::BITS / DIGIT_BITS) as usize;

/// Below this many rows a comparison sort of the (key, position) pairs is
/// cheaper than the radix histograms; both give the same stable order.
const RADIX_MIN_LEN: usize = 1 << 12;

/// An order-preserving `u64` image of a `t_start`: keys compare as the
/// times do, `-0.0` and `0.0` map to one key, and every NaN maps to the
/// largest key, after `+inf`.
#[inline]
fn t_start_key(t: f64) -> u64 {
    if t.is_nan() {
        return u64::MAX;
    }
    // `-0.0 == 0.0`: a zero's sign bit is dropped, so both take `0.0`'s
    // key.
    let bits = t.to_bits();
    let bits = if bits << 1 == 0 { 0 } else { bits };
    // Negative times reverse their magnitude order; non-negative ones sit
    // above every negative one.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One row to sort: its key and where it stands now.
#[derive(Clone, Copy)]
struct Pair {
    key: u64,
    pos: u32,
}

/// The positions of `segs` (at most `u32::MAX` rows) in ascending
/// `t_start` order, stably, signed zeros tied and every NaN last: the
/// order a query batch is sorted in and
/// [`SegmentStore::sort_by_t_start`](crate::SegmentStore::sort_by_t_start)
/// applies.
pub fn t_start_order(segs: &[Segment]) -> Vec<u32> {
    let n = u32::try_from(segs.len()).expect("a row position fits a u32");
    if segs.len() < RADIX_MIN_LEN {
        // The position breaks ties, so an unstable sort gives the stable order.
        let mut pairs: Vec<(u64, u32)> =
            segs.iter().zip(0..n).map(|(s, pos)| (t_start_key(s.t_start), pos)).collect();
        pairs.sort_unstable();
        return pairs.into_iter().map(|(_, pos)| pos).collect();
    }
    // One pass over the rows takes the keys and counts every digit of
    // every key.
    let mut pairs = Vec::with_capacity(segs.len());
    let mut counts = vec![0u32; PASSES * RADIX];
    for (pos, s) in segs.iter().enumerate() {
        let key = t_start_key(s.t_start);
        for pass in 0..PASSES {
            counts[pass * RADIX + digit(key, pass)] += 1;
        }
        pairs.push(Pair { key, pos: pos as u32 });
    }
    // A pass whose digit is the same for every key would move nothing.
    let first = pairs[0].key;
    let passes: Vec<usize> =
        (0..PASSES).filter(|&pass| counts[pass * RADIX + digit(first, pass)] != n).collect();
    if passes.is_empty() {
        return (0..n).collect(); // every key is equal
    }
    radix_order(pairs, &mut counts, &passes)
}

/// The positions of `pairs` in stable key order, by an LSD radix sort, 16
/// bits a pass, over the (non-empty, ascending) `passes` that run, from
/// the digit `counts` of every pass. The last pass scatters positions
/// alone.
fn radix_order(mut pairs: Vec<Pair>, counts: &mut [u32], passes: &[usize]) -> Vec<u32> {
    let n = pairs.len();
    let (&last, moves) = passes.split_last().expect("at least one pass runs");
    let mut scratch = Vec::new();
    for &pass in moves {
        scratch.resize(n, Pair { key: 0, pos: 0 });
        let slot = first_slots(counts, pass);
        for p in &pairs {
            let s = &mut slot[digit(p.key, pass)];
            scratch[*s as usize] = *p;
            *s += 1;
        }
        std::mem::swap(&mut pairs, &mut scratch);
    }
    drop(scratch);
    let mut order = vec![0u32; n];
    let slot = first_slots(counts, last);
    for p in &pairs {
        let s = &mut slot[digit(p.key, last)];
        order[*s as usize] = p.pos;
        *s += 1;
    }
    order
}

/// Turn `pass`'s digit counts into each digit's first slot.
fn first_slots(counts: &mut [u32], pass: usize) -> &mut [u32] {
    let slots = &mut counts[pass * RADIX..(pass + 1) * RADIX];
    let mut next = 0u32;
    for c in slots.iter_mut() {
        next += std::mem::replace(c, next);
    }
    slots
}

#[inline]
fn digit(key: u64, pass: usize) -> usize {
    (key >> (pass as u32 * DIGIT_BITS)) as usize & (RADIX - 1)
}

/// Move row `order[i]` of `segs` to slot `i` for every `i`, cycle by
/// cycle: each row moves once, through one row of temporary storage.
/// `order` is consumed as the visited marks. Each step reads the next
/// position from `order`, four bytes a row, so the walk's chain of
/// dependent loads stays in cache while the rows it moves do not.
pub(crate) fn permute(segs: &mut [Segment], order: &mut [u32]) {
    for start in 0..segs.len() {
        if order[start] as usize == start {
            continue;
        }
        let held = segs[start];
        let mut hole = start;
        loop {
            let from = std::mem::replace(&mut order[hole], hole as u32) as usize;
            if from == start {
                segs[hole] = held;
                break;
            }
            segs[hole] = segs[from];
            hole = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_as_the_times_do() {
        let times = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in times.windows(2) {
            assert!(t_start_key(w[0]) < t_start_key(w[1]), "{} !< {}", w[0], w[1]);
        }
        assert_eq!(t_start_key(-0.0), t_start_key(0.0));
        assert!(t_start_key(f64::INFINITY) < t_start_key(f64::NAN));
        assert_eq!(t_start_key(-f64::NAN), u64::MAX);
    }
}
