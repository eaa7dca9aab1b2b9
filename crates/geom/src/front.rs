//! A vector that drops elements from its front in time proportional to
//! what it drops.
//!
//! A sliding window cuts its oldest rows and appends its newest. A plain
//! `Vec` pays for a cut with a pass over everything that survives it; a
//! [`FrontVec`] instead advances a front offset over the rows it drops, so
//! the survivors past the cut stay where they are. The slack the offset
//! leaves is reclaimed lazily: once it exceeds a quarter of the live
//! elements, one compaction moves them down. Each compaction moves fewer
//! than four elements per element dropped since the last one, so a cut
//! costs O(cut) amortised, and the slack stays below a quarter of the live
//! length (plus the one cut that crossed the bound).

use std::ops::Deref;

/// Elements in a `Vec` behind a front offset: `buf[front..]` are live.
#[derive(Debug)]
pub struct FrontVec<T> {
    buf: Vec<T>,
    front: usize,
}

impl<T> Default for FrontVec<T> {
    fn default() -> Self {
        FrontVec { buf: Vec::new(), front: 0 }
    }
}

impl<T: Copy> Clone for FrontVec<T> {
    /// A copy of the live elements alone: the clone starts with no slack.
    fn clone(&self) -> Self {
        FrontVec::from(self.as_slice().to_vec())
    }
}

impl<T: PartialEq> PartialEq for FrontVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.buf[self.front..] == other.buf[other.front..]
    }
}

impl<T> From<Vec<T>> for FrontVec<T> {
    fn from(buf: Vec<T>) -> Self {
        FrontVec { buf, front: 0 }
    }
}

impl<T> Deref for FrontVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.front..]
    }
}

impl<T: Copy> FrontVec<T> {
    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self
    }

    /// The live elements, mutably (reordering in place keeps the slack).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.front..]
    }

    /// Slots in front of the live elements that a compaction would reclaim.
    #[inline]
    pub fn slack(&self) -> usize {
        self.front
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, x: T) {
        self.buf.push(x);
    }

    /// Append `xs` in order.
    #[inline]
    pub fn extend_from_slice(&mut self, xs: &[T]) {
        self.buf.extend_from_slice(xs);
    }

    /// Keep the first `len` live elements and drop the rest (no-op past
    /// the end).
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(self.front + len);
    }

    /// Cut the first `n` live elements: keep those `keep(i, &x)` maps to
    /// `Some`, rewritten with the value it returns and in their order, as
    /// the new head, and drop the rest. Elements past `n` do not move.
    /// `keep` sees the prefix back to front (`i` is the live index).
    /// Returns the number dropped. O(n), plus the amortised compaction
    /// described in the module docs.
    pub fn cut_front(&mut self, n: usize, mut keep: impl FnMut(usize, &T) -> Option<T>) -> usize {
        let n = n.min(self.len());
        let mut write = self.front + n;
        for i in (0..n).rev() {
            let read = self.front + i;
            if let Some(x) = keep(i, &self.buf[read]) {
                write -= 1;
                self.buf[write] = x;
            }
        }
        let dropped = write - self.front;
        self.front = write;
        if self.front > self.len() / 4 {
            self.buf.drain(..self.front);
            self.front = 0;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_keeps_survivors_in_order_and_leaves_the_tail_in_place() {
        let mut v = FrontVec::from((0..100u32).collect::<Vec<_>>());
        let tail = v.as_slice()[10..].as_ptr();
        // Keep the odd elements of the first 10, doubled.
        let dropped = v.cut_front(10, |_, &x| (x % 2 == 1).then_some(2 * x));
        assert_eq!(dropped, 5);
        assert_eq!(&v[..5], &[2, 6, 10, 14, 18]);
        assert_eq!(v.len(), 95);
        assert!(v[5..].iter().copied().eq(10..100));
        // Five dropped of 95 live: under the compaction bound.
        assert_eq!(v.slack(), 5);
        assert_eq!(v[5..].as_ptr(), tail, "the survivors past the cut did not move");
    }

    #[test]
    fn slack_stays_bounded_and_compaction_is_lazy() {
        let mut v = FrontVec::from((0..64u32).collect::<Vec<_>>());
        let mut next = 64;
        for _ in 0..1_000 {
            v.extend_from_slice(&[next, next + 1]);
            next += 2;
            v.cut_front(2, |_, _| None);
            assert!(v.slack() <= v.len() / 4, "slack {} over {}", v.slack(), v.len());
            assert_eq!(v.len(), 64);
            assert_eq!(v[0], next - 64);
        }
        // Cut to empty, then regrow.
        v.cut_front(usize::MAX, |_, _| None);
        assert!(v.is_empty());
        assert_eq!(v.slack(), 0);
        v.push(7);
        assert_eq!(v.as_slice(), &[7]);
    }

    #[test]
    fn clones_and_equality_see_the_live_elements_only() {
        let mut v = FrontVec::from((0..40u32).collect::<Vec<_>>());
        v.cut_front(3, |_, _| None);
        assert_eq!(v.slack(), 3);
        let c = v.clone();
        assert_eq!(c.slack(), 0);
        assert_eq!(c, v);
        assert_eq!(c.as_slice(), v.as_slice());
    }
}
