//! Open-loop arrival schedules: a pure function of the seed, so the same
//! `--seed` offers the server the same traffic on every commit.

use std::ops::Range;

/// SplitMix64 — the harness's own generator, so that a schedule does not
/// change when the program's vendored `rand` does.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One request of an open-loop phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts at which the request is due.
    pub due_s: f64,
    /// Which registered client sends it.
    pub client: usize,
}

/// Poisson arrivals at `rate_per_s` over `duration_s`, each assigned to one
/// of `clients` uniformly. At least one request is always scheduled.
pub fn poisson(seed: u64, rate_per_s: f64, duration_s: f64, clients: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s && !out.is_empty() {
            return out;
        }
        out.push(Arrival {
            due_s: t.min(duration_s),
            client: (rng.next_u64() % clients as u64) as usize,
        });
    }
}

/// Round `round` of `rounds` of a schedule over `duration_s`: the requests
/// due in that window, and the second at which the window opens.
pub fn window(
    schedule: &[Arrival],
    round: usize,
    rounds: usize,
    duration_s: f64,
) -> (Range<usize>, f64) {
    let edge = |k: usize| duration_s * k as f64 / rounds as f64;
    let first = schedule.partition_point(|a| a.due_s < edge(round));
    let end = if round + 1 == rounds {
        schedule.len()
    } else {
        schedule.partition_point(|a| a.due_s < edge(round + 1))
    };
    (first..end, edge(round))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson(7, 16.0, 4.0, 4);
        assert_eq!(a, poisson(7, 16.0, 4.0, 4));
        assert_ne!(a, poisson(8, 16.0, 4.0, 4));
    }

    #[test]
    fn schedule_is_ordered_bounded_and_near_the_rate() {
        let a = poisson(1, 20.0, 50.0, 3);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|r| r.due_s <= 50.0 && r.client < 3));
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 20.0).abs() < 2.0, "rate {rate}");
        assert_eq!(poisson(1, 0.001, 0.5, 1).len(), 1);
    }

    #[test]
    fn windows_partition_the_schedule_in_order() {
        let a = poisson(3, 20.0, 6.0, 2);
        let parts: Vec<_> = (0..3).map(|k| window(&a, k, 3, 6.0)).collect();
        assert_eq!(parts[0].0.start, 0);
        assert_eq!(parts[2].0.end, a.len());
        for k in 0..3 {
            let (range, from_s) = parts[k].clone();
            assert_eq!(from_s, 2.0 * k as f64);
            assert!(k == 0 || parts[k - 1].0.end == range.start);
            assert!(a[range]
                .iter()
                .all(|r| r.due_s >= from_s && r.due_s <= from_s + 2.0));
        }
        assert_eq!(window(&a, 0, 1, 6.0), (0..a.len(), 0.0));
    }
}
