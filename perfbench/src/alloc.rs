//! Counting global allocator: live heap bytes and a resettable
//! high-water mark, so a repetition's peak heap can be read above the
//! heap that was already live when it started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live-byte and high-water counters. One static instance backs the
/// global allocator; tests drive their own.
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    /// Zeroed counters.
    pub const fn new() -> Self {
        HeapCounter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes live right now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest live-byte count since the last [`HeapCounter::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

/// The process-wide counter behind [`CountingAlloc`].
pub static HEAP: HeapCounter = HeapCounter::new();

/// System allocator wrapper that keeps [`HEAP`] current.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                HEAP.grow(new_size - layout.size());
            } else {
                HEAP.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_resets_to_live_bytes() {
        let c = HeapCounter::new();
        c.grow(100);
        c.grow(50);
        c.shrink(120);
        assert_eq!(c.live(), 30);
        assert_eq!(c.peak(), 150);
        c.reset_peak();
        assert_eq!(c.peak(), 30);
        c.grow(10);
        c.shrink(10);
        assert_eq!(c.peak(), 40);
    }

    #[test]
    fn global_counter_sees_a_large_allocation() {
        HEAP.reset_peak();
        let before = HEAP.peak();
        let v = vec![1u8; 8 << 20];
        assert!(HEAP.peak() >= before + (8 << 20) - (1 << 20));
        drop(v);
    }
}
