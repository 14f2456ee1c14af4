//! Shared-queue dispatch: N dispatcher threads over one queue of model
//! groups, under one pool-wide queue bound.
//!
//! The queue is a FIFO of `ModelGroup`s — same-model jobs batch together
//! because they share one `BatchCGrid` forward pass. Every dispatcher
//! takes its next batch from that one queue, so a single hot model
//! spreads across every dispatcher without routing or rebalancing.
//!
//! A submission bounces with [`SubmitError::QueueFull`] only when the
//! queue cannot take it whole; the HTTP layer answers that as 429 with a
//! `retry_after_ms` hint. A batch with more inputs than the bound itself
//! could never be admitted, so it is refused up front as
//! [`SubmitError::BatchTooLarge`].
//!
//! Each job carries a [`CompletionHandle`]: batches aggregate
//! per-request, then one completion record lands on a [`CompletionSink`]
//! shared with the event loop and the loop's waker is rung.

use crate::cache::FirstHopCache;
use crate::head::ReadoutHead;
use crate::metrics::{Metrics, ShardCounters};
use crate::poll::WakeHandle;
use crate::registry::{ModelRegistry, ServedModel};
use photonn_math::{BatchCGrid, BatchGrid, CGrid, Grid};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// -------------------------------------------------------------- policy

/// Coalescing and capacity policy of the dispatcher pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of requests fused into one batch.
    pub max_batch: usize,
    /// Longest time the head request may wait for co-travelers, in
    /// microseconds. `0` dispatches immediately (batch size becomes
    /// whatever already queued).
    pub max_wait_us: u64,
    /// Most jobs parked in the pool's one queue, whatever the dispatcher
    /// count; submissions beyond it are refused.
    pub queue_capacity: usize,
    /// FFT worker threads per dispatched batch (`0` is treated as 1).
    pub threads: usize,
}

impl Default for BatchPolicy {
    /// A balanced default: coalesce up to 16 requests for at most 2 ms,
    /// queue at most 256, and use up to 8 cores.
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_wait_us: 2_000,
            queue_capacity: 256,
            threads: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
        }
    }
}

impl BatchPolicy {
    /// The no-batching baseline: every request dispatches alone.
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait_us: 0,
            ..BatchPolicy::default()
        }
    }

    fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue cannot take the submission now (HTTP 429).
    QueueFull,
    /// The submission has more inputs than the queue can ever hold, so
    /// no retry can admit it (HTTP 413).
    BatchTooLarge {
        /// Inputs in the refused submission.
        inputs: usize,
        /// The pool's `queue_capacity`.
        capacity: usize,
    },
    /// No model with this name is registered (HTTP 404).
    UnknownModel(String),
    /// The image does not match the model's grid (HTTP 400).
    ShapeMismatch {
        /// Expected side length.
        expected: usize,
        /// Received shape.
        got: (usize, usize),
    },
    /// The pool is shutting down (HTTP 503).
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::BatchTooLarge { inputs, capacity } => {
                write!(f, "{inputs} inputs exceed the queue capacity of {capacity}")
            }
            SubmitError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            SubmitError::ShapeMismatch { expected, got } => write!(
                f,
                "image shape {got:?} does not match the {expected}x{expected} grid"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

// ------------------------------------------------------------- replies

/// One finished request ready to be written back by the event loop.
pub struct Completion {
    /// Generation-tagged connection token the response belongs to.
    pub conn: u64,
    /// Response slot on that connection (pipelining order).
    pub slot: usize,
    /// Per-input logits, in the request's input order.
    pub results: Vec<Vec<f64>>,
}

/// Where dispatchers park finished work for the event loop; pushing rings
/// the loop's waker.
pub struct CompletionSink {
    queue: Mutex<Vec<Completion>>,
    waker: WakeHandle,
}

impl CompletionSink {
    /// A sink that wakes `waker` whenever a completion lands.
    pub fn new(waker: WakeHandle) -> Arc<CompletionSink> {
        Arc::new(CompletionSink {
            queue: Mutex::new(Vec::new()),
            waker,
        })
    }

    /// Takes everything accumulated so far (event-loop side).
    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion lock"))
    }

    fn push(&self, completion: Completion) {
        self.queue.lock().expect("completion lock").push(completion);
        self.waker.wake();
    }
}

/// Aggregates the per-sample results of one (possibly batched) request.
struct Aggregation {
    results: Mutex<Vec<Option<Vec<f64>>>>,
    remaining: AtomicUsize,
}

/// The completion-side reply handle of one sample of one request.
pub struct CompletionHandle {
    sink: Arc<CompletionSink>,
    conn: u64,
    slot: usize,
    agg: Arc<Aggregation>,
    index: usize,
}

impl CompletionHandle {
    /// Builds one handle per input of a request; when the last input's
    /// logits arrive, a single [`Completion`] lands on the sink.
    ///
    /// # Panics
    ///
    /// Panics when `total` is zero.
    pub fn batch(
        sink: &Arc<CompletionSink>,
        conn: u64,
        slot: usize,
        total: usize,
    ) -> Vec<CompletionHandle> {
        assert!(total > 0, "a request has at least one input");
        let agg = Arc::new(Aggregation {
            results: Mutex::new(vec![None; total]),
            remaining: AtomicUsize::new(total),
        });
        (0..total)
            .map(|index| CompletionHandle {
                sink: Arc::clone(sink),
                conn,
                slot,
                agg: Arc::clone(&agg),
                index,
            })
            .collect()
    }

    fn complete(self, logits: Vec<f64>) {
        self.agg.results.lock().expect("aggregation lock")[self.index] = Some(logits);
        if self.agg.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let results = self
                .agg
                .results
                .lock()
                .expect("aggregation lock")
                .iter_mut()
                .map(|slot| slot.take().expect("all samples completed"))
                .collect();
            self.sink.push(Completion {
                conn: self.conn,
                slot: self.slot,
                results,
            });
        }
    }
}

// ----------------------------------------------------------- the pool

struct Job {
    model: Arc<ServedModel>,
    head: ReadoutHead,
    image: Grid,
    reply: CompletionHandle,
    enqueued: Instant,
}

/// Same-model jobs awaiting one shared forward pass.
struct ModelGroup {
    model: Arc<ServedModel>,
    jobs: VecDeque<Job>,
}

/// The one queue every dispatcher takes its batches from.
struct Queue {
    groups: VecDeque<ModelGroup>,
    /// Jobs parked across every group: the bound admission checks.
    depth: usize,
    shutdown: bool,
}

struct PoolInner {
    queue: Mutex<Queue>,
    /// Rung when jobs arrive, when a dispatcher leaves work behind, and
    /// at shutdown.
    wake: Condvar,
    counters: Arc<Vec<ShardCounters>>,
    registry: Arc<ModelRegistry>,
    policy: BatchPolicy,
    cache: Option<FirstHopCache>,
    metrics: Arc<Metrics>,
}

/// Takes the queue lock; the `serve.queue_lock` span covers the wait for
/// it, not the time it is held.
fn lock_queue(pool: &PoolInner) -> MutexGuard<'_, Queue> {
    let _wait = photonn_trace::span("serve.queue_lock");
    pool.queue.lock().expect("queue lock")
}

/// N dispatcher threads over one model registry and one shared queue.
/// Dropping the pool shuts it down gracefully (queued jobs are still
/// answered).
pub struct ShardPool {
    inner: Arc<PoolInner>,
    dispatchers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardPool {
    /// Starts `shards` dispatcher threads over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty, the policy is degenerate, or
    /// `shards` is zero.
    pub fn new(
        registry: Arc<ModelRegistry>,
        policy: BatchPolicy,
        shards: usize,
        cache: Option<FirstHopCache>,
        metrics: Arc<Metrics>,
    ) -> ShardPool {
        policy.validate();
        assert!(shards > 0, "at least one shard");
        assert!(!registry.is_empty(), "cannot serve an empty registry");
        let counters: Arc<Vec<ShardCounters>> =
            Arc::new((0..shards).map(|_| ShardCounters::default()).collect());
        metrics.install_shards(Arc::clone(&counters));
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue {
                groups: VecDeque::new(),
                depth: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            counters,
            registry,
            policy,
            cache,
            metrics,
        });
        let dispatchers = (0..shards)
            .map(|index| {
                let pool = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("photonn-shard-{index}"))
                    .spawn(move || dispatch_loop(&pool, index))
                    .expect("spawn shard dispatcher")
            })
            .collect();
        ShardPool {
            inner,
            dispatchers: Mutex::new(dispatchers),
        }
    }

    /// The registry this pool serves.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Resolves a model name (`None` routes to the registry default).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] when no such model is registered.
    pub fn resolve(&self, model_name: Option<&str>) -> Result<&Arc<ServedModel>, SubmitError> {
        match model_name {
            Some(name) => self
                .inner
                .registry
                .get(name)
                .ok_or_else(|| SubmitError::UnknownModel(name.to_string())),
            None => Ok(self
                .inner
                .registry
                .default_model()
                .expect("registry checked non-empty")),
        }
    }

    /// Enqueues one sample for `model` under `head`; `reply` receives the
    /// logits once its batch has run. The one-image case of
    /// [`ShardPool::submit_batch`].
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; the job is refused *before* queueing in every
    /// error case.
    pub fn submit(
        &self,
        model: &Arc<ServedModel>,
        head: ReadoutHead,
        image: Grid,
        reply: CompletionHandle,
    ) -> Result<(), SubmitError> {
        self.submit_batch(model, head, vec![image], vec![reply])
    }

    /// Enqueues a whole batch of samples for `model` under `head`
    /// atomically: either every sample is admitted or none is. This is
    /// the `/v2` batched-inputs entry point — all-or-nothing admission
    /// keeps a multi-sample request from half-landing when the queue is
    /// near capacity (which would strand its completion aggregation).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; no job is queued in any error case.
    ///
    /// # Panics
    ///
    /// Panics when `images` and `replies` disagree in length or are empty.
    pub fn submit_batch(
        &self,
        model: &Arc<ServedModel>,
        head: ReadoutHead,
        images: Vec<Grid>,
        replies: Vec<CompletionHandle>,
    ) -> Result<(), SubmitError> {
        assert_eq!(images.len(), replies.len(), "one reply per image");
        assert!(!images.is_empty(), "empty batch");
        let n = model.grid();
        for image in &images {
            if image.shape() != (n, n) {
                return Err(SubmitError::ShapeMismatch {
                    expected: n,
                    got: image.shape(),
                });
            }
        }
        let count = images.len();
        let capacity = self.inner.policy.queue_capacity;
        if count > capacity {
            return Err(SubmitError::BatchTooLarge {
                inputs: count,
                capacity,
            });
        }
        {
            let mut queue = lock_queue(&self.inner);
            if queue.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.depth + count > capacity {
                return Err(SubmitError::QueueFull);
            }
            let now = Instant::now();
            let jobs = images.into_iter().zip(replies).map(|(image, reply)| Job {
                model: Arc::clone(model),
                head,
                image,
                reply,
                enqueued: now,
            });
            match queue
                .groups
                .iter_mut()
                .find(|g| Arc::ptr_eq(&g.model, model))
            {
                Some(group) => group.jobs.extend(jobs),
                None => queue.groups.push_back(ModelGroup {
                    model: Arc::clone(model),
                    jobs: jobs.collect(),
                }),
            }
            queue.depth += count;
            self.inner.metrics.set_queue_depth(queue.depth);
        }
        for _ in 0..count {
            self.inner.metrics.record_model_request(model.name());
        }
        self.inner.wake.notify_one();
        Ok(())
    }

    /// Jobs parked in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("queue lock").depth
    }

    /// Stops accepting jobs, drains the queue (each parked job still
    /// receives its logits), and joins the dispatchers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.queue.lock().expect("queue lock").shutdown = true;
        self.inner.wake.notify_all();
        let mut handles = self.dispatchers.lock().expect("join lock");
        for handle in handles.drain(..) {
            handle.join().expect("shard dispatcher panicked");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------ dispatch loops

fn dispatch_loop(pool: &PoolInner, index: usize) {
    while let Some(jobs) = next_batch(pool) {
        run_batch(pool, index, jobs);
    }
}

/// Blocks until the queue holds a dispatchable batch; `None` when the
/// pool is shut down and the queue is drained.
fn next_batch(pool: &PoolInner) -> Option<Vec<Job>> {
    let max_batch = pool.policy.max_batch;
    let mut queue = lock_queue(pool);
    loop {
        if queue.depth == 0 {
            if queue.shutdown {
                return None;
            }
            queue = pool.wake.wait(queue).expect("queue lock");
            continue;
        }
        // Dispatch by age, not queue position: the group whose head job
        // has waited longest owns the pool's deadline, so sustained
        // traffic to one model can never starve another model's group
        // parked behind it (its max_wait is always consulted). A group
        // that has already filled a batch goes immediately — oldest such
        // group first when several are full.
        let head_of = |group: &ModelGroup| group.jobs.front().expect("non-empty group").enqueued;
        let mut oldest = 0;
        let mut full: Option<usize> = None;
        for (i, group) in queue.groups.iter().enumerate() {
            let head = head_of(group);
            if head < head_of(&queue.groups[oldest]) {
                oldest = i;
            }
            if group.jobs.len() >= max_batch
                && full.is_none_or(|f| head < head_of(&queue.groups[f]))
            {
                full = Some(i);
            }
        }
        let deadline =
            head_of(&queue.groups[oldest]) + Duration::from_micros(pool.policy.max_wait_us);
        let now = Instant::now();
        let pick = if queue.shutdown || now >= deadline {
            Some(oldest)
        } else {
            full
        };
        if let Some(at) = pick {
            let jobs = take_group(&mut queue, at, max_batch);
            pool.metrics.set_queue_depth(queue.depth);
            let left_work = queue.depth > 0;
            drop(queue);
            if left_work {
                // What this batch left behind may already be due; an idle
                // peer takes it rather than wait for this batch to run.
                pool.wake.notify_one();
            }
            return Some(jobs);
        }
        let (next, _) = pool
            .wake
            .wait_timeout(queue, deadline - now)
            .expect("queue lock");
        queue = next;
    }
}

/// Takes up to `max_batch` jobs off the group at `at`, removing the group
/// when it empties (order within the group is preserved).
fn take_group(queue: &mut Queue, at: usize, max_batch: usize) -> Vec<Job> {
    let group = &mut queue.groups[at];
    let take = group.jobs.len().min(max_batch);
    let jobs: Vec<Job> = group.jobs.drain(..take).collect();
    if group.jobs.is_empty() {
        queue.groups.remove(at);
    }
    queue.depth -= jobs.len();
    jobs
}

// ----------------------------------------------------------- batch run

/// Runs one coalesced same-model batch and fans the per-sample logits
/// back out through each job's reply.
fn run_batch(pool: &PoolInner, index: usize, jobs: Vec<Job>) {
    let _dispatch = photonn_trace::span("serve.shard_dispatch");
    let threads = pool.policy.threads;
    let model = Arc::clone(&jobs[0].model);
    pool.metrics.record_batch(jobs.len());
    pool.counters[index].batches.fetch_add(1, Ordering::Relaxed);
    // Each job's queue wait ended the moment this batch started; the
    // interval is reconstructed from the enqueue instant rather than held
    // open across threads.
    if photonn_trace::enabled() {
        let dispatch_ns = photonn_trace::now_ns();
        for job in &jobs {
            let start = photonn_trace::instant_ns(job.enqueued);
            photonn_trace::record_span("serve.queue_wait", start, dispatch_ns);
        }
    }
    let intensity = match &pool.cache {
        None => {
            let images: Vec<&Grid> = {
                let _span = photonn_trace::span("serve.batch_assemble");
                jobs.iter().map(|j| &j.image).collect()
            };
            let _span = photonn_trace::span("serve.forward");
            model.intensity_batch(&images, threads)
        }
        Some(cache) => run_with_cache(pool, cache, &model, &jobs, threads),
    };
    let cols = intensity.cols();
    let regions = model.regions();
    let done = Instant::now();
    pool.counters[index]
        .jobs
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    for (job, sample) in jobs.into_iter().zip(intensity.samples()) {
        let logits = job.head.readout(sample, cols, regions);
        let us = done.duration_since(job.enqueued).as_micros() as u64;
        pool.metrics.record_latency_us(us);
        pool.metrics.record_model_latency(model.name(), us);
        job.reply.complete(logits);
    }
}

/// Cache-assisted batch execution: resolve each image's mask-independent
/// first hop from the LRU, compute the misses as one batched hop, then run
/// the model's masked propagation from the assembled field stack.
/// Per-sample determinism of the batched engine makes this path
/// bit-identical to the uncached one.
fn run_with_cache(
    pool: &PoolInner,
    cache: &FirstHopCache,
    model: &ServedModel,
    jobs: &[Job],
    threads: usize,
) -> BatchGrid {
    let mut hops: Vec<Option<Arc<CGrid>>> = Vec::with_capacity(jobs.len());
    // Misses grouped by key: a burst of identical images coalesced into
    // one batch — the cache's target workload — must compute each
    // distinct first hop once, not once per request.
    let mut misses: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let key = FirstHopCache::key(&job.image);
        let cached = cache.get(&key);
        if cached.is_some() {
            pool.metrics.record_cache_hit();
        } else {
            pool.metrics.record_cache_miss();
            match misses.iter_mut().find(|(k, _)| *k == key) {
                Some((_, indices)) => indices.push(i),
                None => misses.push((key, vec![i])),
            }
        }
        hops.push(cached);
    }
    if !misses.is_empty() {
        let miss_images: Vec<&Grid> = misses
            .iter()
            .map(|(_, indices)| &jobs[indices[0]].image)
            .collect();
        let fresh = {
            let _span = photonn_trace::span("serve.forward");
            model.donn().first_hop_batch(&miss_images, threads)
        };
        for (slot, (key, indices)) in misses.into_iter().enumerate() {
            let field = Arc::new(fresh.to_cgrid(slot));
            cache.insert(key, Arc::clone(&field));
            for i in indices {
                hops[i] = Some(Arc::clone(&field));
            }
        }
    }
    // Deinterleave the resolved fields into the planar batch stack
    // outside any cache lock (the Arc clones above were pointer-sized).
    let n = model.grid();
    let stack = {
        let _span = photonn_trace::span("serve.batch_assemble");
        let mut stack = BatchCGrid::zeros(jobs.len(), n, n);
        for (b, hop) in hops.iter().enumerate() {
            stack.set_sample(b, hop.as_deref().expect("resolved"));
        }
        stack
    };
    let _span = photonn_trace::span("serve.forward");
    model.intensity_from_first_hop(stack, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Interest, Poller, Waker};
    use photonn_datasets::{Dataset, Family};
    use photonn_donn::deploy::FabricationModel;
    use photonn_donn::{Donn, DonnConfig};
    use photonn_math::Rng;

    fn registry() -> (Arc<ModelRegistry>, Donn) {
        let mut rng = Rng::seed_from(3);
        let donn = Donn::random(DonnConfig::scaled(32), &mut rng);
        let mut reg = ModelRegistry::new();
        reg.register("ideal", donn.clone());
        reg.register_quantized("q8", &donn, 8);
        reg.register_deployed("deployed", &donn, FabricationModel::new(0.1));
        (Arc::new(reg), donn)
    }

    fn images(count: usize) -> Vec<Grid> {
        let data = Dataset::synthetic(Family::Mnist, count, 11).resized(32);
        (0..count).map(|i| data.image(i).clone()).collect()
    }

    fn policy(max_batch: usize, max_wait_us: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_wait_us,
            queue_capacity: 256,
            threads: 2,
        }
    }

    /// Receives completions the way the event loop does: a sink whose
    /// waker interrupts a poll. Each request's id is its `conn` token.
    struct Inbox {
        poller: Poller,
        waker: Waker,
        sink: Arc<CompletionSink>,
        landed: Vec<Completion>,
    }

    impl Inbox {
        fn new() -> Inbox {
            let waker = Waker::new().unwrap();
            let mut poller = Poller::new().unwrap();
            poller.register(waker.fd(), 0, Interest::READ).unwrap();
            let sink = CompletionSink::new(waker.handle().unwrap());
            Inbox {
                poller,
                waker,
                sink,
                landed: Vec::new(),
            }
        }

        /// Submits `image` as the one-sample request `id`, as `/v1` does.
        fn submit(
            &self,
            pool: &ShardPool,
            model: &Arc<ServedModel>,
            head: ReadoutHead,
            image: &Grid,
            id: u64,
        ) -> Result<(), SubmitError> {
            let reply = CompletionHandle::batch(&self.sink, id, 0, 1).remove(0);
            pool.submit(model, head, image.clone(), reply)
        }

        /// Request `id`'s completion, or `None` after `timeout`.
        fn recv_timeout(&mut self, id: u64, timeout: Duration) -> Option<Completion> {
            let deadline = Instant::now() + timeout;
            let mut events = Vec::new();
            loop {
                self.landed.extend(self.sink.drain());
                if let Some(at) = self.landed.iter().position(|c| c.conn == id) {
                    return Some(self.landed.swap_remove(at));
                }
                let left = deadline.checked_duration_since(Instant::now())?;
                self.poller.wait(&mut events, Some(left)).unwrap();
                self.waker.drain();
            }
        }

        /// The logits of the one-sample request `id`.
        fn recv(&mut self, id: u64) -> Vec<f64> {
            let mut results = self
                .recv_timeout(id, Duration::from_secs(30))
                .expect("request never completed")
                .results;
            assert_eq!(results.len(), 1);
            results.remove(0)
        }
    }

    #[test]
    fn multi_shard_pool_serves_bit_identical_logits() {
        let (reg, donn) = registry();
        let q8 = reg.get("q8").unwrap();
        let imgs = images(12);
        for shards in [1, 4] {
            let pool = ShardPool::new(
                Arc::clone(&reg),
                policy(8, 2_000),
                shards,
                None,
                Arc::new(Metrics::new()),
            );
            let models = [
                pool.resolve(None).unwrap(),
                pool.resolve(Some("q8")).unwrap(),
            ];
            let mut inbox = Inbox::new();
            // Distinct images alternating between two models: coalescing
            // across dispatchers may slice the burst arbitrarily, yet every
            // request must get its own image's logits from its own model.
            for (id, img) in (0..).zip(&imgs) {
                let model = models[id as usize % 2];
                inbox
                    .submit(&pool, model, ReadoutHead::Sum, img, id)
                    .unwrap();
            }
            for (id, img) in (0..).zip(&imgs) {
                let want = if id % 2 == 0 {
                    donn.logits(img)
                } else {
                    q8.logits_batch(&[img], 1).remove(0)
                };
                assert_eq!(inbox.recv(id), want, "{shards} shards routed wrong sample");
            }
            assert_eq!(pool.queue_depth(), 0);
        }
    }

    #[test]
    fn queue_bound_is_pool_wide_at_any_shard_count() {
        let (reg, _) = registry();
        let imgs = images(4);
        for shards in [1, 2, 4] {
            // A coalescing wait no test outlives parks every admitted job
            // until shutdown drains the pool.
            let pool = ShardPool::new(
                Arc::clone(&reg),
                BatchPolicy {
                    max_batch: 8,
                    max_wait_us: 60_000_000,
                    queue_capacity: 2,
                    threads: 1,
                },
                shards,
                None,
                Arc::new(Metrics::new()),
            );
            let ideal = pool.resolve(Some("ideal")).unwrap().clone();
            let deployed = pool.resolve(Some("deployed")).unwrap().clone();
            let mut inbox = Inbox::new();
            // More inputs than the bound: refused as never admissible,
            // even into an empty queue.
            let triple = CompletionHandle::batch(&inbox.sink, 4, 0, 3);
            assert_eq!(
                pool.submit_batch(&ideal, ReadoutHead::Sum, imgs[..3].to_vec(), triple),
                Err(SubmitError::BatchTooLarge {
                    inputs: 3,
                    capacity: 2
                })
            );
            inbox
                .submit(&pool, &ideal, ReadoutHead::Sum, &imgs[0], 0)
                .unwrap();
            // One slot left: a 2-sample batch for the other model is
            // refused whole.
            let pair = CompletionHandle::batch(&inbox.sink, 1, 0, 2);
            assert_eq!(
                pool.submit_batch(&deployed, ReadoutHead::Sum, imgs[1..3].to_vec(), pair),
                Err(SubmitError::QueueFull),
                "{shards} shards"
            );
            inbox
                .submit(&pool, &deployed, ReadoutHead::Sum, &imgs[1], 2)
                .unwrap();
            assert_eq!(pool.queue_depth(), 2);
            for model in [&ideal, &deployed] {
                assert_eq!(
                    inbox.submit(&pool, model, ReadoutHead::Sum, &imgs[3], 3),
                    Err(SubmitError::QueueFull),
                    "{shards} shards admitted a third job"
                );
            }
            // The parked jobs still complete.
            pool.shutdown();
            assert_eq!(inbox.recv(0).len(), 10);
            assert_eq!(inbox.recv(2).len(), 10);
            assert_eq!(pool.queue_depth(), 0);
        }
    }

    #[test]
    fn coalescing_respects_max_batch() {
        let (reg, _) = registry();
        let metrics = Arc::new(Metrics::new());
        // Generous wait so the dispatcher *wants* to coalesce everything;
        // max_batch must still cap every dispatched group at 2.
        let pool = ShardPool::new(reg, policy(2, 50_000), 1, None, Arc::clone(&metrics));
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        let imgs = images(5);
        for (id, img) in (0..).zip(&imgs) {
            inbox
                .submit(&pool, &model, ReadoutHead::Sum, img, id)
                .unwrap();
        }
        for id in 0..5 {
            inbox.recv(id);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.batch_hist.iter().sum::<u64>(), snap.batches_total);
        assert!(snap.max_batch_observed <= 2, "max_batch violated");
        assert!(snap.batches_total >= 3, "5 jobs need >= 3 batches of <= 2");
        // Every job was dispatched exactly once.
        let jobs: u64 = snap.batch_hist[0] + 2 * snap.batch_hist[1];
        assert_eq!(jobs, 5);
    }

    #[test]
    fn max_wait_dispatches_partial_batches() {
        let (reg, donn) = registry();
        // max_batch far above traffic: only the deadline can trigger.
        let pool = ShardPool::new(reg, policy(64, 20_000), 1, None, Arc::new(Metrics::new()));
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        let img = images(1).remove(0);
        let start = Instant::now();
        inbox
            .submit(&pool, &model, ReadoutHead::Sum, &img, 0)
            .unwrap();
        let logits = inbox.recv(0);
        let elapsed = start.elapsed();
        assert_eq!(logits, donn.logits(&img));
        assert!(
            elapsed >= Duration::from_micros(10_000),
            "dispatched before the deadline could have elapsed: {elapsed:?}"
        );
        assert!(elapsed < Duration::from_secs(5), "deadline never fired");
    }

    #[test]
    fn submit_validates_model_and_shape_upfront() {
        let (reg, _) = registry();
        let pool = ShardPool::new(reg, policy(4, 100), 1, None, Arc::new(Metrics::new()));
        assert_eq!(
            pool.resolve(Some("nope")).unwrap_err(),
            SubmitError::UnknownModel("nope".into())
        );
        let model = pool.resolve(None).unwrap().clone();
        let inbox = Inbox::new();
        assert_eq!(
            inbox.submit(&pool, &model, ReadoutHead::Sum, &Grid::zeros(16, 16), 0),
            Err(SubmitError::ShapeMismatch {
                expected: 32,
                got: (16, 16)
            })
        );
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn shutdown_drains_parked_jobs_then_refuses() {
        let (reg, donn) = registry();
        let pool = ShardPool::new(
            reg,
            policy(64, 1_000_000),
            1,
            None,
            Arc::new(Metrics::new()),
        );
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        let imgs = images(3);
        for (id, img) in (0..).zip(&imgs) {
            inbox
                .submit(&pool, &model, ReadoutHead::Sum, img, id)
                .unwrap();
        }
        // Shutdown before the 1 s coalescing deadline: the drain must
        // still answer every parked job.
        pool.shutdown();
        for (id, img) in (0..).zip(&imgs) {
            assert_eq!(inbox.recv(id), donn.logits(img));
        }
        assert_eq!(
            inbox.submit(&pool, &model, ReadoutHead::Sum, &imgs[0], 3),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn cache_path_is_bit_identical_and_counts_hits() {
        let (reg, donn) = registry();
        let metrics = Arc::new(Metrics::new());
        let cache = FirstHopCache::new(64 << 20);
        let pool = ShardPool::new(reg, policy(4, 2_000), 1, Some(cache), Arc::clone(&metrics));
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        let imgs = images(4);
        let mut id = 0;
        for round in 0..2 {
            for img in &imgs {
                inbox
                    .submit(&pool, &model, ReadoutHead::Sum, img, id)
                    .unwrap();
                assert_eq!(inbox.recv(id), donn.logits(img), "round {round}");
                id += 1;
            }
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.cache_hits + snap.cache_misses, 8);
        assert!(
            snap.cache_hits >= 4,
            "second round must hit the cache: {snap:?}"
        );
        assert!(snap.cache_misses >= 4, "first round must miss");
    }

    #[test]
    fn duplicate_images_within_a_batch_share_one_first_hop() {
        let (reg, donn) = registry();
        let metrics = Arc::new(Metrics::new());
        let cache = FirstHopCache::new(64 << 20);
        // Large max_wait so all submissions coalesce into one batch.
        let pool = ShardPool::new(
            reg,
            policy(8, 100_000),
            1,
            Some(cache),
            Arc::clone(&metrics),
        );
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        let img = images(1).remove(0);
        for id in 0..4 {
            inbox
                .submit(&pool, &model, ReadoutHead::Sum, &img, id)
                .unwrap();
        }
        let want = donn.logits(&img);
        for id in 0..4 {
            assert_eq!(inbox.recv(id), want);
        }
        // Per-request accounting: every request was either a cold miss
        // (deduped into one computation when coalesced) or — if timing
        // split the batch — a hit on the freshly cached hop.
        let snap = metrics.snapshot();
        assert_eq!(snap.cache_hits + snap.cache_misses, 4);
        assert!(snap.cache_misses >= 1);
    }

    #[test]
    fn hot_model_burst_runs_batches_on_every_dispatcher() {
        let (reg, donn) = registry();
        let metrics = Arc::new(Metrics::new());
        // One model, two dispatchers, long coalescing wait and a small
        // batch ceiling: a burst is many full batches in one queue, and a
        // dispatcher that takes one leaves the rest to its idle peer.
        let pool = ShardPool::new(
            reg,
            BatchPolicy {
                max_batch: 2,
                max_wait_us: 50_000,
                queue_capacity: 256,
                threads: 1,
            },
            2,
            None,
            Arc::clone(&metrics),
        );
        let imgs = images(16);
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        // Which dispatcher wakes first depends on thread scheduling, so
        // burst repeatedly until each has run a batch.
        for round in 0..50 {
            for (id, img) in (0..).zip(&imgs) {
                inbox
                    .submit(&pool, &model, ReadoutHead::Sum, img, id)
                    .unwrap();
            }
            for (id, img) in (0..).zip(&imgs) {
                assert_eq!(inbox.recv(id), donn.logits(img));
            }
            let snap = metrics.snapshot();
            if snap.per_shard.iter().all(|s| s.batches > 0) {
                return;
            }
            assert!(
                round < 49,
                "a dispatcher never ran a batch of the hot model: {snap:?}"
            );
        }
    }

    #[test]
    fn full_newer_group_neither_waits_behind_nor_starves_an_older_group() {
        let (reg, donn) = registry();
        // Both models share the one queue at any dispatcher count; a 2 s
        // coalescing wait so the older, non-full group parks a dispatcher.
        for shards in [1, 2] {
            let pool = ShardPool::new(
                Arc::clone(&reg),
                policy(4, 2_000_000),
                shards,
                None,
                Arc::new(Metrics::new()),
            );
            let imgs = images(5);
            let ideal = pool.resolve(Some("ideal")).unwrap().clone();
            let q8 = pool.resolve(Some("q8")).unwrap().clone();
            let mut inbox = Inbox::new();
            inbox
                .submit(&pool, &ideal, ReadoutHead::Sum, &imgs[0], 0)
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            for (id, img) in (1..).zip(&imgs[1..]) {
                inbox.submit(&pool, &q8, ReadoutHead::Sum, img, id).unwrap();
            }
            // The batch-sized q8 group must dispatch right away instead of
            // queueing behind ideal's far-off coalescing deadline.
            for id in 1..5 {
                inbox
                    .recv_timeout(id, Duration::from_millis(500))
                    .expect("full group stuck behind an older non-full group");
            }
            // And the older group still goes out on its own deadline — the
            // hot model cannot starve it.
            assert_eq!(
                inbox
                    .recv_timeout(0, Duration::from_secs(10))
                    .map(|c| c.results),
                Some(vec![donn.logits(&imgs[0])]),
                "{shards} dispatchers: older group starved or misrouted"
            );
        }
    }

    #[test]
    fn completion_sink_aggregates_batched_requests_in_order() {
        let (reg, donn) = registry();
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::new(reg, policy(8, 1_000), 2, None, metrics);
        let mut inbox = Inbox::new();
        let imgs = images(5);
        let model = pool.resolve(None).unwrap().clone();
        let handles = CompletionHandle::batch(&inbox.sink, 0xBEEF, 3, imgs.len());
        for (img, handle) in imgs.iter().zip(handles) {
            pool.submit(&model, ReadoutHead::Sum, img.clone(), handle)
                .unwrap();
        }
        // Exactly one completion lands, once the last input is done.
        let c = inbox
            .recv_timeout(0xBEEF, Duration::from_secs(20))
            .expect("completion never arrived");
        assert!(inbox.landed.is_empty() && inbox.sink.drain().is_empty());
        assert_eq!(c.slot, 3);
        assert_eq!(c.results.len(), imgs.len());
        for (img, got) in imgs.iter().zip(&c.results) {
            assert_eq!(got, &donn.logits(img), "aggregation reordered inputs");
        }
    }

    #[test]
    fn differential_head_jobs_coexist_with_sum_jobs_in_one_batch() {
        let (reg, donn) = registry();
        let metrics = Arc::new(Metrics::new());
        // Long wait so both jobs coalesce into one batch.
        let pool = ShardPool::new(reg, policy(8, 50_000), 1, None, metrics);
        let img = images(1).remove(0);
        let model = pool.resolve(None).unwrap().clone();
        let mut inbox = Inbox::new();
        inbox
            .submit(&pool, &model, ReadoutHead::Sum, &img, 0)
            .unwrap();
        inbox
            .submit(&pool, &model, ReadoutHead::Differential, &img, 1)
            .unwrap();
        let sum = inbox.recv(0);
        let diff = inbox.recv(1);
        assert_eq!(sum, donn.logits(&img), "sum head must stay bit-identical");
        assert_ne!(sum, diff, "differential head must differ from plain sums");
        assert!(diff.iter().all(|v| v.is_finite() && v.abs() <= 1.0 + 1e-9));
    }
}
