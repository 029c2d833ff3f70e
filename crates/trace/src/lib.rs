//! Structured observability for the simulator: a zero-cost-when-disabled
//! event trace, the streaming liveness and fairness oracles it feeds during
//! fault runs, a metrics registry, per-lock contention statistics with a
//! starvation watchdog and blocking chains built as the run goes, the one
//! HTML emitter every published page is built from, and host-side
//! self-observability (span profiler + allocation telemetry).

pub mod alloc;
pub mod html;
pub mod lockstat;
pub mod metrics;
pub mod oracle;
pub mod prof;
pub mod record;
pub mod series;
pub mod sketch;
pub mod tracer;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use lockstat::{
    deepest_first, render_chains, render_html, ChainLink, FlagOutcome, HtmlSeries, LockChain,
    LockStat, LockStats, StarvationFlag, WatchdogVerdict,
};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use oracle::{Oracles, Violation};
pub use prof::{ProfileReport, Span, SpanRow};
pub use record::{Ep, TraceEvent, TraceKind};
pub use series::{SeriesCollector, SeriesSnapshot, WindowRow};
pub use sketch::{QuantileSketch, TailSummary};
pub use tracer::Tracer;
