//! Service observability: request counters, queue depth, a batch-size
//! histogram and request-latency quantiles, rendered as a plaintext
//! `GET /metrics` document in the Prometheus exposition style. The
//! process-wide `mfaplace_rt::timer` counters and scope timers ride along
//! under `mfaplace_rt_*` names, so kernel-level instrumentation shows up
//! in the same scrape.
//!
//! With the model fleet the registry is two-level: the original
//! un-labelled families (`mfaplace_queue_depth`, `mfaplace_batch_size`,
//! `mfaplace_engine_info`, …) stay as **aggregates** across every slot —
//! existing dashboards keep working — while a [`SlotMetrics`] handle (one
//! per fleet slot) additionally maintains `mfaplace_slot_*` families
//! labelled `{slot="…"}`. Point-in-time gauges (model info, engine) are
//! last-writer-wins at the aggregate level; the per-slot copies are the
//! authoritative ones in a multi-slot deployment.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mfaplace_core::PlanCacheStats;

/// Upper bucket bounds of the batch-size histogram (last bucket is +Inf).
pub const BATCH_BUCKETS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Number of most-recent request latencies kept for quantile estimates.
const LATENCY_WINDOW: usize = 4096;

/// Per-slot slice of the registry, rendered under `mfaplace_slot_*`.
#[derive(Default)]
struct SlotStats {
    requests: BTreeMap<u16, u64>,
    queue_depth: u64,
    queue_rejections: u64,
    deadline_misses: u64,
    batches: u64,
    batched_items: u64,
    model_name: String,
    model_version: u64,
    engine_name: String,
    precision_name: String,
    plan_ops: u64,
    plan_arena_bytes: u64,
    plan_copies_elided: u64,
}

#[derive(Default)]
struct Inner {
    requests_total: BTreeMap<(String, u16), u64>,
    batch_hist: [u64; BATCH_BUCKETS.len() + 1],
    batches_total: u64,
    batched_items_total: u64,
    latencies_us: Vec<u64>,
    latency_next: usize,
    queue_depth: u64,
    queue_rejections: u64,
    deadline_misses: u64,
    model_version: u64,
    model_name: String,
    engine_name: String,
    precision_name: String,
    plan_ops: u64,
    plan_arena_bytes: u64,
    plan_copies_elided: u64,
    slots: BTreeMap<String, SlotStats>,
    plan_cache: Option<PlanCacheStats>,
}

/// Thread-safe metrics registry shared by the server, batcher and worker.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
    /// Extra exposition sources appended to every render — how subsystems
    /// outside this crate (e.g. the job engine) publish their own families
    /// into the same `/metrics` document.
    externals: Mutex<Vec<Box<dyn Fn() -> String + Send + Sync>>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one completed request on `endpoint` with HTTP `status`.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        let mut m = self.lock();
        *m.requests_total
            .entry((endpoint.to_owned(), status))
            .or_insert(0) += 1;
    }

    /// Counts one executed batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        let mut m = self.lock();
        let idx = BATCH_BUCKETS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        m.batch_hist[idx] += 1;
        m.batches_total += 1;
        m.batched_items_total += size as u64;
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut m = self.lock();
        if m.latencies_us.len() < LATENCY_WINDOW {
            m.latencies_us.push(us);
        } else {
            let at = m.latency_next % LATENCY_WINDOW;
            m.latencies_us[at] = us;
        }
        m.latency_next = (m.latency_next + 1) % LATENCY_WINDOW;
    }

    /// Sets the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.lock().queue_depth = depth as u64;
    }

    /// Counts one request rejected due to a full queue.
    pub fn record_queue_rejection(&self) {
        self.lock().queue_rejections += 1;
    }

    /// Counts one request dropped for missing its deadline.
    pub fn record_deadline_miss(&self) {
        self.lock().deadline_misses += 1;
    }

    /// Publishes the currently served model (name + hot-reload version).
    pub fn set_model(&self, name: &str, version: u64) {
        let mut m = self.lock();
        m.model_name = name.to_owned();
        m.model_version = version;
    }

    /// Publishes the active inference engine (`"tape"` / `"plan"` /
    /// `"quant"`).
    pub fn set_engine(&self, name: &str) {
        self.lock().engine_name = name.to_owned();
    }

    /// Publishes the numeric precision forwards run at (`"f32"` /
    /// `"int8"`).
    pub fn set_precision(&self, name: &str) {
        self.lock().precision_name = name.to_owned();
    }

    /// Publishes the compiled-plan gauges (op count, arena bytes and
    /// elided-copy count of the peak-memory plan). Zeroed while no plan is
    /// compiled.
    pub fn set_plan_stats(&self, ops: u64, arena_bytes: u64, copies_elided: u64) {
        let mut m = self.lock();
        m.plan_ops = ops;
        m.plan_arena_bytes = arena_bytes;
        m.plan_copies_elided = copies_elided;
    }

    /// Creates the per-slot handle for `name`, registering the slot in the
    /// rendered output immediately.
    pub fn slot(self: &Arc<Self>, name: &str) -> SlotMetrics {
        self.lock().slots.entry(name.to_owned()).or_default();
        SlotMetrics {
            metrics: self.clone(),
            slot: name.to_owned(),
        }
    }

    /// Drops `name`'s `mfaplace_slot_*` series (slot removed from the
    /// fleet) and re-derives the aggregate queue depth from the survivors.
    pub fn remove_slot(&self, name: &str) {
        let mut m = self.lock();
        m.slots.remove(name);
        m.queue_depth = m.slots.values().map(|s| s.queue_depth).sum();
    }

    /// Counts one completed predict on `slot` with HTTP `status`.
    pub fn record_slot_request(&self, slot: &str, status: u16) {
        let mut m = self.lock();
        *m.slots
            .entry(slot.to_owned())
            .or_default()
            .requests
            .entry(status)
            .or_insert(0) += 1;
    }

    /// Publishes the shared plan cache's counters (entries, bytes, budget,
    /// hits/misses/evictions) for the next render.
    pub fn set_plan_cache_stats(&self, stats: PlanCacheStats) {
        self.lock().plan_cache = Some(stats);
    }

    /// Registers an extra exposition source: `render_fn` is called on
    /// every [`Metrics::render`] and its output appended verbatim. The
    /// callback must return complete, newline-terminated exposition lines
    /// and must not call back into this registry.
    pub fn register_external(&self, render_fn: Box<dyn Fn() -> String + Send + Sync>) {
        self.externals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(render_fn);
    }

    /// Renders the plaintext exposition document.
    pub fn render(&self) -> String {
        let m = self.lock();
        let mut out = String::new();

        out.push_str("# TYPE mfaplace_requests_total counter\n");
        for ((endpoint, status), n) in &m.requests_total {
            out.push_str(&format!(
                "mfaplace_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
            ));
        }

        out.push_str("# TYPE mfaplace_queue_depth gauge\n");
        out.push_str(&format!("mfaplace_queue_depth {}\n", m.queue_depth));
        out.push_str(&format!(
            "mfaplace_queue_rejections_total {}\n",
            m.queue_rejections
        ));
        out.push_str(&format!(
            "mfaplace_deadline_misses_total {}\n",
            m.deadline_misses
        ));

        out.push_str("# TYPE mfaplace_batch_size histogram\n");
        let mut cumulative = 0;
        for (i, &bound) in BATCH_BUCKETS.iter().enumerate() {
            cumulative += m.batch_hist[i];
            out.push_str(&format!(
                "mfaplace_batch_size_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += m.batch_hist[BATCH_BUCKETS.len()];
        out.push_str(&format!(
            "mfaplace_batch_size_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("mfaplace_batch_size_count {}\n", m.batches_total));
        out.push_str(&format!(
            "mfaplace_batch_size_sum {}\n",
            m.batched_items_total
        ));

        if !m.latencies_us.is_empty() {
            let mut sorted = m.latencies_us.clone();
            sorted.sort_unstable();
            out.push_str("# TYPE mfaplace_request_latency_seconds summary\n");
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                out.push_str(&format!(
                    "mfaplace_request_latency_seconds{{quantile=\"{label}\"}} {:.6}\n",
                    sorted[idx] as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "mfaplace_request_latency_seconds_count {}\n",
                sorted.len()
            ));
        }

        out.push_str(&format!(
            "mfaplace_model_info{{name=\"{}\"}} 1\n",
            m.model_name
        ));
        out.push_str(&format!("mfaplace_model_version {}\n", m.model_version));

        out.push_str(&format!(
            "mfaplace_engine_info{{engine=\"{}\"}} 1\n",
            m.engine_name
        ));
        out.push_str(&format!(
            "mfaplace_precision_info{{precision=\"{}\"}} 1\n",
            m.precision_name
        ));
        // Process-global SIMD kernel backend; read at render time so the
        // gauge always reflects the dispatcher's actual state (the CI
        // consistency check compares this against `mfaplace kernels`).
        out.push_str(&format!(
            "mfaplace_kernel_backend{{backend=\"{}\"}} 1\n",
            mfaplace_tensor::simd::active().name()
        ));
        out.push_str("# TYPE mfaplace_infer_plan_ops gauge\n");
        out.push_str(&format!("mfaplace_infer_plan_ops {}\n", m.plan_ops));
        out.push_str("# TYPE mfaplace_infer_plan_arena_bytes gauge\n");
        out.push_str(&format!(
            "mfaplace_infer_plan_arena_bytes {}\n",
            m.plan_arena_bytes
        ));
        out.push_str("# TYPE mfaplace_infer_plan_copies_elided gauge\n");
        out.push_str(&format!(
            "mfaplace_infer_plan_copies_elided {}\n",
            m.plan_copies_elided
        ));

        for (name, s) in &m.slots {
            for (status, n) in &s.requests {
                out.push_str(&format!(
                    "mfaplace_slot_requests_total{{slot=\"{name}\",status=\"{status}\"}} {n}\n"
                ));
            }
            out.push_str(&format!(
                "mfaplace_slot_queue_depth{{slot=\"{name}\"}} {}\n",
                s.queue_depth
            ));
            out.push_str(&format!(
                "mfaplace_slot_queue_rejections_total{{slot=\"{name}\"}} {}\n",
                s.queue_rejections
            ));
            out.push_str(&format!(
                "mfaplace_slot_deadline_misses_total{{slot=\"{name}\"}} {}\n",
                s.deadline_misses
            ));
            out.push_str(&format!(
                "mfaplace_slot_batches_total{{slot=\"{name}\"}} {}\n",
                s.batches
            ));
            out.push_str(&format!(
                "mfaplace_slot_batched_items_total{{slot=\"{name}\"}} {}\n",
                s.batched_items
            ));
            out.push_str(&format!(
                "mfaplace_slot_model_info{{slot=\"{name}\",name=\"{}\"}} 1\n",
                s.model_name
            ));
            out.push_str(&format!(
                "mfaplace_slot_model_version{{slot=\"{name}\"}} {}\n",
                s.model_version
            ));
            out.push_str(&format!(
                "mfaplace_slot_engine_info{{slot=\"{name}\",engine=\"{}\"}} 1\n",
                s.engine_name
            ));
            out.push_str(&format!(
                "mfaplace_slot_precision_info{{slot=\"{name}\",precision=\"{}\"}} 1\n",
                s.precision_name
            ));
            out.push_str(&format!(
                "mfaplace_slot_plan_ops{{slot=\"{name}\"}} {}\n",
                s.plan_ops
            ));
            out.push_str(&format!(
                "mfaplace_slot_plan_arena_bytes{{slot=\"{name}\"}} {}\n",
                s.plan_arena_bytes
            ));
            out.push_str(&format!(
                "mfaplace_slot_plan_copies_elided{{slot=\"{name}\"}} {}\n",
                s.plan_copies_elided
            ));
        }

        if let Some(pc) = &m.plan_cache {
            out.push_str("# TYPE mfaplace_plan_cache_bytes gauge\n");
            out.push_str(&format!("mfaplace_plan_cache_entries {}\n", pc.entries));
            out.push_str(&format!("mfaplace_plan_cache_bytes {}\n", pc.bytes));
            out.push_str(&format!("mfaplace_plan_cache_max_bytes {}\n", pc.max_bytes));
            out.push_str(&format!("mfaplace_plan_cache_hits_total {}\n", pc.hits));
            out.push_str(&format!("mfaplace_plan_cache_misses_total {}\n", pc.misses));
            out.push_str(&format!(
                "mfaplace_plan_cache_evictions_total {}\n",
                pc.evictions
            ));
        }
        drop(m);

        // Families published by registered subsystems (e.g. the job
        // engine's `mfaplace_jobs_*`).
        for external in self
            .externals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            out.push_str(&external());
        }

        // Process-wide runtime counters and scope timers.
        let snap = mfaplace_rt::timer::snapshot();
        for (name, v) in &snap.counters {
            out.push_str(&format!("mfaplace_rt_counter{{name=\"{name}\"}} {v}\n"));
        }
        for (name, stat) in &snap.timers {
            out.push_str(&format!(
                "mfaplace_rt_timer_calls{{scope=\"{name}\"}} {}\n",
                stat.calls
            ));
            out.push_str(&format!(
                "mfaplace_rt_timer_seconds_total{{scope=\"{name}\"}} {:.6}\n",
                stat.total.as_secs_f64()
            ));
        }
        out
    }
}

/// A per-slot view of the shared [`Metrics`] registry. Every recording
/// method updates both the slot's `mfaplace_slot_*` series and the
/// fleet-wide aggregate family under one lock, so the two can never
/// disagree about what was counted.
#[derive(Clone)]
pub struct SlotMetrics {
    metrics: Arc<Metrics>,
    slot: String,
}

impl SlotMetrics {
    /// The underlying shared registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The slot this handle records under.
    pub fn slot_name(&self) -> &str {
        &self.slot
    }

    fn with_slot(&self, f: impl FnOnce(&mut SlotStats, &mut Inner)) {
        let mut m = self.metrics.lock();
        // Detach the slot entry so both it and the aggregates can be
        // borrowed mutably; re-inserted below.
        let mut s = m.slots.remove(&self.slot).unwrap_or_default();
        f(&mut s, &mut m);
        m.slots.insert(self.slot.clone(), s);
    }

    /// Counts one executed batch of `size` requests on this slot.
    pub fn record_batch(&self, size: usize) {
        self.metrics.record_batch(size);
        self.with_slot(|s, _| {
            s.batches += 1;
            s.batched_items += size as u64;
        });
    }

    /// Sets this slot's queue-depth gauge; the aggregate becomes the sum
    /// over all live slots.
    pub fn set_queue_depth(&self, depth: usize) {
        self.with_slot(|s, m| {
            s.queue_depth = depth as u64;
            m.queue_depth = m.slots.values().map(|o| o.queue_depth).sum::<u64>() + s.queue_depth;
        });
    }

    /// Counts one request rejected by this slot's full queue.
    pub fn record_queue_rejection(&self) {
        self.with_slot(|s, m| {
            s.queue_rejections += 1;
            m.queue_rejections += 1;
        });
    }

    /// Counts one request dropped on this slot for missing its deadline.
    pub fn record_deadline_miss(&self) {
        self.with_slot(|s, m| {
            s.deadline_misses += 1;
            m.deadline_misses += 1;
        });
    }

    /// Publishes this slot's served model (aggregate copy is last-writer-
    /// wins across slots).
    pub fn set_model(&self, name: &str, version: u64) {
        self.with_slot(|s, m| {
            s.model_name = name.to_owned();
            s.model_version = version;
            m.model_name = name.to_owned();
            m.model_version = version;
        });
    }

    /// Publishes this slot's active engine (aggregate copy is last-writer-
    /// wins across slots).
    pub fn set_engine(&self, name: &str) {
        self.with_slot(|s, m| {
            s.engine_name = name.to_owned();
            m.engine_name = name.to_owned();
        });
    }

    /// Publishes this slot's forward precision (aggregate copy is
    /// last-writer-wins across slots).
    pub fn set_precision(&self, name: &str) {
        self.with_slot(|s, m| {
            s.precision_name = name.to_owned();
            m.precision_name = name.to_owned();
        });
    }

    /// Publishes this slot's compiled-plan gauges (aggregate copy is
    /// last-writer-wins across slots).
    pub fn set_plan_stats(&self, ops: u64, arena_bytes: u64, copies_elided: u64) {
        self.with_slot(|s, m| {
            s.plan_ops = ops;
            s.plan_arena_bytes = arena_bytes;
            s.plan_copies_elided = copies_elided;
            m.plan_ops = ops;
            m.plan_arena_bytes = arena_bytes;
            m.plan_copies_elided = copies_elided;
        });
    }

    /// Counts one completed predict on this slot with HTTP `status`.
    pub fn record_request(&self, status: u16) {
        self.with_slot(|s, _| {
            *s.requests.entry(status).or_insert(0) += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_families() {
        let m = Metrics::new();
        m.record_request("/predict", 200);
        m.record_request("/predict", 200);
        m.record_request("/metrics", 200);
        m.record_batch(1);
        m.record_batch(8);
        m.record_batch(100);
        m.record_latency(Duration::from_millis(2));
        m.record_latency(Duration::from_millis(4));
        m.set_queue_depth(3);
        m.record_queue_rejection();
        m.record_deadline_miss();
        m.set_model("Ours", 2);
        m.set_engine("plan");
        m.set_plan_stats(42, 1024, 3);

        let text = m.render();
        assert!(
            text.contains("mfaplace_requests_total{endpoint=\"/predict\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(text.contains("mfaplace_queue_depth 3"), "{text}");
        assert!(text.contains("mfaplace_queue_rejections_total 1"), "{text}");
        assert!(text.contains("mfaplace_deadline_misses_total 1"), "{text}");
        assert!(
            text.contains("mfaplace_batch_size_bucket{le=\"8\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_batch_size_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("mfaplace_batch_size_sum 109"), "{text}");
        assert!(
            text.contains("mfaplace_request_latency_seconds{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("mfaplace_model_version 2"), "{text}");
        assert!(
            text.contains("mfaplace_model_info{name=\"Ours\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_engine_info{engine=\"plan\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "mfaplace_kernel_backend{{backend=\"{}\"}} 1",
                mfaplace_tensor::simd::active().name()
            )),
            "{text}"
        );
        assert!(text.contains("mfaplace_infer_plan_ops 42"), "{text}");
        assert!(
            text.contains("mfaplace_infer_plan_arena_bytes 1024"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_infer_plan_copies_elided 3"),
            "{text}"
        );
    }

    #[test]
    fn slot_metrics_update_both_levels() {
        let m = Arc::new(Metrics::new());
        let a = m.slot("alpha");
        let b = m.slot("beta");
        a.set_model("UNet", 1);
        a.set_engine("plan");
        a.record_batch(3);
        a.set_queue_depth(2);
        b.set_queue_depth(5);
        a.record_queue_rejection();
        b.record_deadline_miss();
        a.set_plan_stats(7, 4096, 2);
        a.record_request(200);
        a.record_request(200);
        m.record_slot_request("beta", 504);
        m.set_plan_cache_stats(PlanCacheStats {
            entries: 2,
            bytes: 99,
            max_bytes: 1000,
            hits: 4,
            misses: 2,
            evictions: 1,
        });

        let text = m.render();
        // Aggregates keep working.
        assert!(text.contains("mfaplace_queue_depth 7"), "{text}");
        assert!(text.contains("mfaplace_queue_rejections_total 1"), "{text}");
        assert!(text.contains("mfaplace_deadline_misses_total 1"), "{text}");
        assert!(text.contains("mfaplace_batch_size_sum 3"), "{text}");
        // Per-slot families.
        assert!(
            text.contains("mfaplace_slot_requests_total{slot=\"alpha\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_requests_total{slot=\"beta\",status=\"504\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_queue_depth{slot=\"alpha\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_queue_depth{slot=\"beta\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_model_info{slot=\"alpha\",name=\"UNet\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_engine_info{slot=\"alpha\",engine=\"plan\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_plan_arena_bytes{slot=\"alpha\"} 4096"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_plan_copies_elided{slot=\"alpha\"} 2"),
            "{text}"
        );
        // Plan-cache gauges.
        assert!(text.contains("mfaplace_plan_cache_entries 2"), "{text}");
        assert!(text.contains("mfaplace_plan_cache_bytes 99"), "{text}");
        assert!(text.contains("mfaplace_plan_cache_hits_total 4"), "{text}");
        assert!(
            text.contains("mfaplace_plan_cache_evictions_total 1"),
            "{text}"
        );

        // Removal drops the series and re-derives the aggregate depth.
        m.remove_slot("beta");
        let text = m.render();
        assert!(!text.contains("slot=\"beta\""), "{text}");
        assert!(text.contains("mfaplace_queue_depth 2"), "{text}");
    }

    #[test]
    fn external_sources_are_appended_to_render() {
        let m = Metrics::new();
        m.register_external(Box::new(|| "mfaplace_jobs_running 3\n".to_owned()));
        let n = Arc::new(Mutex::new(0u64));
        let n2 = n.clone();
        m.register_external(Box::new(move || {
            format!("mfaplace_jobs_queue_depth {}\n", n2.lock().unwrap())
        }));
        assert!(m.render().contains("mfaplace_jobs_running 3"));
        assert!(m.render().contains("mfaplace_jobs_queue_depth 0"));
        *n.lock().unwrap() = 9;
        assert!(m.render().contains("mfaplace_jobs_queue_depth 9"));
    }

    #[test]
    fn latency_window_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(Duration::from_micros(i as u64));
        }
        assert_eq!(m.lock().latencies_us.len(), LATENCY_WINDOW);
    }
}
