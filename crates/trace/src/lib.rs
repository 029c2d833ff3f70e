//! Structured observability for the simulator: a zero-cost-when-disabled
//! event trace, a metrics registry, per-lock contention statistics with a
//! starvation watchdog, post-hoc blocking-chain analysis, the one HTML
//! emitter every published page is built from, and host-side self-observability (span profiler + allocation
//! telemetry) for the simulator's own performance.

pub mod alloc;
pub mod chain;
pub mod html;
pub mod lockstat;
pub mod metrics;
pub mod prof;
pub mod record;
pub mod series;
pub mod sketch;
pub mod tracer;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use chain::{blocking_chains, render_chains, ChainLink, LockChain};
pub use lockstat::{render_html, FlagOutcome, HtmlSeries, LockStat, LockStats, StarvationFlag};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use prof::{ProfileReport, Span, SpanRow};
pub use record::{Ep, TraceEvent, TraceKind};
pub use series::{SeriesCollector, SeriesSnapshot, WindowRow};
pub use sketch::{QuantileSketch, TailSummary};
pub use tracer::Tracer;
