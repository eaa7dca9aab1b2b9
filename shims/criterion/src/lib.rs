//! Offline stand-in for `criterion`: the group/bench/iter API surface this
//! workspace's benches use, with a simple adaptive timing loop (warm-up,
//! batch-size calibration to ~5 ms, then 20 samples reporting
//! min/mean/max per iteration). No plotting, no statistics machinery —
//! numbers print to stdout in a `name  time: [..]` format.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLES: usize = 20;
const TARGET_BATCH: Duration = Duration::from_millis(5);

/// Times closures handed to `iter`.
pub struct Bencher {
    samples: usize,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up + calibration: find a batch size taking ~TARGET_BATCH.
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_BATCH || batch >= 1 << 20 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (TARGET_BATCH.as_nanos() / elapsed.as_nanos().max(1) + 1).min(16) as u64
            };
            batch = (batch * grow.max(2)).min(1 << 20);
        }

        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut total = 0.0;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let per_iter = start.elapsed().as_secs_f64() / batch as f64;
            min = min.min(per_iter);
            max = max.max(per_iter);
            total += per_iter;
        }
        let mean = total / self.samples as f64;
        println!(
            "                        time:   [{} {} {}]",
            fmt_time(min),
            fmt_time(mean),
            fmt_time(max)
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.3} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.3} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        println!("{id}");
        f(&mut Bencher { samples: DEFAULT_SAMPLES });
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _c: self, name: name.into() }
    }
}

pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        println!("{}/{id}", self.name);
        f(&mut Bencher { samples: DEFAULT_SAMPLES });
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_closure() {
        let mut calls = 0u64;
        Bencher { samples: 2 }.iter(|| {
            calls += 1;
            black_box(calls)
        });
        assert!(calls > 2);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        c.bench_function("f", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("g");
        group.bench_function(format!("s={}", 1), |b| b.iter(|| 2 + 2));
        group.finish();
    }
}
