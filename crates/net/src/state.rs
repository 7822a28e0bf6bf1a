//! Mutable per-run network state: channel clocks and link metrics.

use crate::model::NetworkModel;
use hetsched_platform::ProcId;
use std::collections::VecDeque;

/// The priced timing of one batch transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPlan {
    /// When the master's channel starts pushing this batch.
    pub start: f64,
    /// When the last block leaves the master.
    pub end: f64,
    /// When the batch is usable at the worker (`end` + the worker's link
    /// latency).
    pub arrival: f64,
}

/// Simulates the master link for one run: answers "when does this batch
/// arrive at worker `k`?" under the run's [`NetworkModel`], and accumulates
/// the master-busy time and the maximum send-queue depth.
///
/// Transfers are priced in request order (FIFO): each send grabs the
/// earliest-free channel. Because every worker has at most one batch in
/// flight, at most `p` transfers are ever outstanding. Requests come in
/// non-decreasing time (see [`send`](Self::send)).
#[derive(Clone, Debug)]
pub struct NetState {
    model: NetworkModel,
    latency: Vec<f64>,
    /// Per-worker inbound bandwidth caps overriding the model's uniform
    /// `worker_bw` (empty = uniform). Only meaningful for
    /// [`NetworkModel::BoundedMultiport`].
    worker_bw: Vec<f64>,
    /// Free time of each concurrent master channel (len = `channels()`,
    /// empty for `Infinite`).
    channel_free: Vec<f64>,
    /// Accumulated master-link busy time (sum of transfer durations).
    busy: f64,
    /// Start times of transfers that were queued behind a busy channel and
    /// had not started at the last send, in non-decreasing order.
    waiting_starts: VecDeque<f64>,
    max_queue_depth: usize,
    /// The latest request time, which the next may not precede.
    last_now: f64,
}

impl NetState {
    /// Network state over `model` for `workers` workers with per-worker link
    /// latencies (use zeros for latency-free links).
    ///
    /// # Panics
    ///
    /// If `latency.len() != workers` — a caller that slices latencies for a
    /// subset of workers (e.g. a hierarchy shard) must slice them exactly;
    /// a short vector would otherwise silently price the missing links as
    /// latency-free.
    pub fn new(model: NetworkModel, workers: usize, latency: Vec<f64>) -> Self {
        model.validate().expect("invalid network model");
        assert_eq!(
            latency.len(),
            workers,
            "one link latency per worker (got {} for {} workers)",
            latency.len(),
            workers
        );
        assert!(
            latency.iter().all(|l| l.is_finite() && *l >= 0.0),
            "link latencies must be non-negative and finite"
        );
        let channels = if model.is_infinite() {
            0
        } else {
            model.channels().min(workers.max(1))
        };
        NetState {
            model,
            latency,
            worker_bw: Vec::new(),
            channel_free: vec![0.0; channels],
            busy: 0.0,
            waiting_starts: VecDeque::new(),
            max_queue_depth: 0,
            last_now: 0.0,
        }
    }

    /// Overrides the multiport model's uniform `worker_bw` with per-worker
    /// inbound caps (one entry per worker). Each transfer to worker `k` then
    /// runs at `min(bandwidths[k], master_bw)`; the channel *count* stays
    /// derived from the model's uniform `worker_bw`, so the uniform case is
    /// bit-identical with or without this call.
    ///
    /// # Panics
    ///
    /// If the model is not [`NetworkModel::BoundedMultiport`], if the length
    /// does not match the worker count, or if any cap is non-positive or
    /// non-finite.
    pub fn with_worker_bandwidths(mut self, bandwidths: Vec<f64>) -> Self {
        assert!(
            matches!(self.model, NetworkModel::BoundedMultiport { .. }),
            "per-worker bandwidths only apply to the bounded-multiport model"
        );
        assert_eq!(
            bandwidths.len(),
            self.latency.len(),
            "one bandwidth per worker (got {} for {} workers)",
            bandwidths.len(),
            self.latency.len()
        );
        assert!(
            bandwidths.iter().all(|b| b.is_finite() && *b > 0.0),
            "worker bandwidths must be positive and finite"
        );
        self.worker_bw = bandwidths;
        self
    }

    /// The model this state prices.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Prices the transfer of `blocks` blocks to worker `k`, requested at
    /// simulated time `now`. Mutates the channel clocks: the returned plan is
    /// committed.
    ///
    /// Zero-block sends (worker retirement handshakes) are free and do not
    /// occupy a channel.
    ///
    /// Calls must come in non-decreasing `now` (checked in debug builds):
    /// the engine sends at event times, which it pops in order, and the
    /// tree's tier link sends everything at `0`. The earliest-free channel
    /// clock never decreases either, so neither does a transfer's `start`,
    /// and the transfers still waiting at `now` are a suffix of the sends
    /// so far: the queue depth costs amortised O(1) per send.
    pub fn send(&mut self, k: ProcId, blocks: u64, now: f64) -> TransferPlan {
        debug_assert!(
            now >= self.last_now,
            "sends must come in non-decreasing time ({now} after {})",
            self.last_now
        );
        self.last_now = now;
        if self.model.is_infinite() || blocks == 0 {
            return TransferPlan {
                start: now,
                end: now,
                arrival: now,
            };
        }
        let rate = if self.worker_bw.is_empty() {
            self.model.transfer_rate().expect("priced model")
        } else {
            // Heterogeneous multiport: each transfer runs at the target
            // worker's own inbound cap, still bounded by the master.
            let master = self.model.master_bw().expect("priced model");
            self.worker_bw[k.idx()].min(master)
        };
        let duration = blocks as f64 / rate;

        // Earliest-free channel, FIFO over requests.
        let (slot, _) = self
            .channel_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite channel clock"))
            .expect("at least one channel");
        let start = self.channel_free[slot].max(now);
        let end = start + duration;
        self.channel_free[slot] = end;
        self.busy += duration;

        // Queue-depth metric: transfers enqueued but not yet started.
        while self.waiting_starts.front().is_some_and(|&s| s <= now) {
            self.waiting_starts.pop_front();
        }
        if start > now {
            debug_assert!(self.waiting_starts.back().is_none_or(|&s| s <= start));
            self.waiting_starts.push_back(start);
        }
        self.max_queue_depth = self.max_queue_depth.max(self.waiting_starts.len());

        // Construction guarantees one entry per worker, so an out-of-range
        // worker id is a hard (index) error, never a silent free link.
        let latency = self.latency[k.idx()];
        TransferPlan {
            start,
            end,
            arrival: end + latency,
        }
    }

    /// Total time the master link spent transferring (summed over channels).
    pub fn master_busy(&self) -> f64 {
        self.busy
    }

    /// Master-link utilization over a run of length `makespan`: busy time
    /// divided by `makespan × channels`. Zero for infinite networks and
    /// empty runs.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if self.channel_free.is_empty() || makespan <= 0.0 {
            return 0.0;
        }
        self.busy / (makespan * self.channel_free.len() as f64)
    }

    /// Largest number of batches ever waiting behind busy channels.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_port(bw: f64) -> NetState {
        NetState::new(NetworkModel::OnePort { master_bw: bw }, 4, vec![0.0; 4])
    }

    #[test]
    fn infinite_transfers_are_free() {
        let mut net = NetState::new(NetworkModel::Infinite, 3, vec![5.0; 3]);
        let plan = net.send(ProcId(0), 1000, 2.5);
        assert_eq!(plan.start, 2.5);
        assert_eq!(plan.arrival, 2.5, "infinite ignores latency");
        assert_eq!(net.master_busy(), 0.0);
        assert_eq!(net.utilization(10.0), 0.0);
        assert_eq!(net.max_queue_depth(), 0);
    }

    #[test]
    fn one_port_serializes_fifo() {
        let mut net = one_port(10.0);
        let a = net.send(ProcId(0), 50, 0.0); // 5 time units
        let b = net.send(ProcId(1), 30, 0.0); // queued behind a
        let c = net.send(ProcId(2), 20, 0.0);
        assert_eq!((a.start, a.end), (0.0, 5.0));
        assert_eq!((b.start, b.end), (5.0, 8.0));
        assert_eq!((c.start, c.end), (8.0, 10.0));
        assert_eq!(net.master_busy(), 10.0);
        assert_eq!(net.max_queue_depth(), 2, "b and c waited");
        assert!((net.utilization(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut net = one_port(10.0);
        let a = net.send(ProcId(0), 10, 0.0);
        assert_eq!(a.end, 1.0);
        let b = net.send(ProcId(1), 10, 5.0); // link idle since t = 1
        assert_eq!((b.start, b.end), (5.0, 6.0));
        assert_eq!(net.max_queue_depth(), 0, "nobody ever waited");
    }

    #[test]
    fn latency_delays_arrival_only() {
        let mut net = NetState::new(NetworkModel::OnePort { master_bw: 10.0 }, 2, vec![0.0, 2.0]);
        let a = net.send(ProcId(1), 10, 0.0);
        assert_eq!(a.end, 1.0);
        assert_eq!(a.arrival, 3.0);
        // The channel frees at `end`, not `arrival`.
        let b = net.send(ProcId(0), 10, 0.0);
        assert_eq!(b.start, 1.0);
        assert_eq!(b.arrival, 2.0);
    }

    #[test]
    fn multiport_runs_channels_in_parallel() {
        let mut net = NetState::new(
            NetworkModel::BoundedMultiport {
                master_bw: 20.0,
                worker_bw: 10.0,
            },
            4,
            vec![0.0; 4],
        );
        // Two channels at rate 10 each.
        let a = net.send(ProcId(0), 10, 0.0);
        let b = net.send(ProcId(1), 10, 0.0);
        let c = net.send(ProcId(2), 10, 0.0);
        assert_eq!((a.start, a.end), (0.0, 1.0));
        assert_eq!((b.start, b.end), (0.0, 1.0), "second channel is free");
        assert_eq!((c.start, c.end), (1.0, 2.0), "third transfer queues");
        assert_eq!(net.max_queue_depth(), 1);
        // Aggregate utilization over both channels.
        assert!((net.utilization(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_block_sends_are_free() {
        let mut net = one_port(1.0);
        let plan = net.send(ProcId(0), 0, 4.0);
        assert_eq!(plan.arrival, 4.0);
        assert_eq!(net.master_busy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid network model")]
    fn invalid_model_rejected() {
        let _ = NetState::new(NetworkModel::OnePort { master_bw: -1.0 }, 1, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "one link latency per worker")]
    fn short_latency_vector_rejected() {
        // A shard that forgets to slice latencies must fail loudly instead
        // of quietly getting free links.
        let _ = NetState::new(NetworkModel::OnePort { master_bw: 1.0 }, 4, vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "one link latency per worker")]
    fn long_latency_vector_rejected() {
        let _ = NetState::new(NetworkModel::Infinite, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "one bandwidth per worker")]
    fn short_bandwidth_vector_rejected() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let _ = NetState::new(model, 4, vec![0.0; 4]).with_worker_bandwidths(vec![10.0; 3]);
    }

    #[test]
    #[should_panic(expected = "only apply to the bounded-multiport model")]
    fn per_worker_bandwidths_require_multiport() {
        let _ = NetState::new(NetworkModel::OnePort { master_bw: 5.0 }, 2, vec![0.0; 2])
            .with_worker_bandwidths(vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_bandwidth_rejected() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let _ = NetState::new(model, 2, vec![0.0; 2]).with_worker_bandwidths(vec![10.0, 0.0]);
    }

    #[test]
    fn per_worker_bandwidths_price_each_link() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let mut net = NetState::new(model, 2, vec![0.0; 2]).with_worker_bandwidths(vec![10.0, 2.0]);
        let fast = net.send(ProcId(0), 10, 0.0);
        let slow = net.send(ProcId(1), 10, 0.0);
        assert_eq!(fast.end, 1.0, "worker 0 keeps the uniform rate");
        assert_eq!(slow.end, 5.0, "worker 1 is capped at 2 blocks/time");
    }

    #[test]
    fn uniform_bandwidth_list_matches_uniform_model() {
        // The per-worker override with every entry equal to the model's
        // uniform cap prices identically to the plain model.
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let mut plain = NetState::new(model, 3, vec![0.0; 3]);
        let mut listed =
            NetState::new(model, 3, vec![0.0; 3]).with_worker_bandwidths(vec![10.0; 3]);
        for (k, blocks, now) in [(0u32, 10u64, 0.0), (1, 7, 0.2), (2, 3, 0.4), (0, 5, 1.0)] {
            assert_eq!(
                plain.send(ProcId(k), blocks, now),
                listed.send(ProcId(k), blocks, now)
            );
        }
        assert_eq!(plain.master_busy(), listed.master_busy());
    }

    /// The pricing `NetState::send` had when it recounted the waiting
    /// transfers with a `retain` on every send: the reference the FIFO
    /// queue-depth count must agree with.
    struct RetainReference {
        rates: Vec<f64>,
        latency: Vec<f64>,
        channel_free: Vec<f64>,
        busy: f64,
        waiting_starts: Vec<f64>,
        max_queue_depth: usize,
    }

    impl RetainReference {
        fn send(&mut self, k: ProcId, blocks: u64, now: f64) -> TransferPlan {
            if blocks == 0 {
                return TransferPlan {
                    start: now,
                    end: now,
                    arrival: now,
                };
            }
            let duration = blocks as f64 / self.rates[k.idx()];
            let (slot, _) = self
                .channel_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            let start = self.channel_free[slot].max(now);
            let end = start + duration;
            self.channel_free[slot] = end;
            self.busy += duration;
            self.waiting_starts.retain(|&s| s > now);
            if start > now {
                self.waiting_starts.push(start);
            }
            self.max_queue_depth = self.max_queue_depth.max(self.waiting_starts.len());
            TransferPlan {
                start,
                end,
                arrival: end + self.latency[k.idx()],
            }
        }
    }

    #[test]
    fn fifo_queue_depth_agrees_with_the_retain_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let p = 12;
        let multiport = NetworkModel::BoundedMultiport {
            master_bw: 40.0,
            worker_bw: 10.0,
        };
        let caps: Vec<f64> = (0..p).map(|k| 4.0 + 3.0 * k as f64).collect();
        let latency: Vec<f64> = (0..p).map(|k| 0.125 * (k % 3) as f64).collect();
        let cases = [
            (NetworkModel::OnePort { master_bw: 10.0 }, None),
            (multiport, None),
            (multiport, Some(caps.clone())),
        ];
        let mut deepest = 0;
        for (model, caps) in cases {
            for _ in 0..20 {
                let mut net = NetState::new(model, p, latency.clone());
                let rates = match &caps {
                    Some(caps) => {
                        net = net.with_worker_bandwidths(caps.clone());
                        caps.iter().map(|&c| c.min(40.0)).collect()
                    }
                    None => vec![model.transfer_rate().unwrap(); p],
                };
                let mut reference = RetainReference {
                    rates,
                    latency: latency.clone(),
                    channel_free: vec![0.0; model.channels().min(p)],
                    busy: 0.0,
                    waiting_starts: Vec::new(),
                    max_queue_depth: 0,
                };
                let mut now = 0.0;
                for _ in 0..400 {
                    // Repeated instants half the time, a coarse time
                    // grid so that starts tie with `now`, and an
                    // occasional zero-block send.
                    if next(2) == 0 {
                        now += next(8) as f64 * 0.25;
                    }
                    let k = ProcId(next(p as u64) as u32);
                    let blocks = if next(10) == 0 { 0 } else { 1 + next(12) };
                    assert_eq!(net.send(k, blocks, now), reference.send(k, blocks, now));
                    assert_eq!(net.master_busy(), reference.busy);
                    assert_eq!(net.max_queue_depth(), reference.max_queue_depth);
                }
                deepest = deepest.max(net.max_queue_depth());
            }
        }
        assert!(deepest > 3, "the workload never queued deeply ({deepest})");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing time")]
    fn a_send_back_in_time_is_caught() {
        let mut net = one_port(1.0);
        net.send(ProcId(0), 1, 2.0);
        net.send(ProcId(1), 1, 1.0);
    }
}
