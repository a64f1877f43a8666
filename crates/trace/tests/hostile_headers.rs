//! A hostile `.qtr` header costs no large allocation: a record that
//! claims `u32::MAX` bytes and a record count of `u64::MAX` are both
//! rejected before anything is sized from them.
//!
//! The binary installs a global allocator that remembers the largest
//! single request, so the bound is measured rather than assumed. It
//! holds one test only: tests running beside it would share the gauge.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qap_trace::{read_trace, TraceFileError};

/// Forwards to the system allocator, recording the largest request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// A trace header claiming `count` records, then the given raw records
/// (length word and body).
fn raw_trace(count: u64, records: &[(u32, &[u8])]) -> Vec<u8> {
    let mut out = b"QAPTRC01".to_vec();
    out.extend_from_slice(&count.to_le_bytes());
    for (len, body) in records {
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(body);
    }
    out
}

/// Reads `bytes` as a trace file and returns the error together with
/// the largest allocation made while reading.
fn read_hostile(name: &str, bytes: &[u8]) -> (TraceFileError, usize) {
    let mut path = std::env::temp_dir();
    path.push(format!("qap-hostile-{}-{name}.qtr", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let err = read_trace(&path).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    std::fs::remove_file(path).ok();
    (err, largest)
}

#[test]
fn hostile_headers_are_rejected_without_a_large_allocation() {
    const LIMIT: usize = 1 << 20;

    // One record claiming 4 GiB in a 31-byte file.
    let (err, largest) = read_hostile("length", &raw_trace(1, &[(u32::MAX, &[0, 1, 1])]));
    assert!(matches!(err, TraceFileError::Io(_)), "{err}");
    assert!(largest < LIMIT, "largest allocation {largest} bytes");

    // A count of u64::MAX over one real (empty) tuple.
    let (err, largest) = read_hostile("count", &raw_trace(u64::MAX, &[(2, &[0, 0])]));
    assert!(matches!(err, TraceFileError::Io(_)), "{err}");
    assert!(largest < LIMIT, "largest allocation {largest} bytes");
}
