//! `serve_mixed`: an in-process `serve::Server` on loopback with the
//! default batched dispatch, driven by two closed-loop client connections
//! with a seeded mix of `POST /v1/predict` requests:
//!
//! * 60% single kernel items over the 16 bundled kernels' full spaces
//!   (array partitions included), so repeats are rare;
//! * 25% `"requests"` arrays of 2–6 items, a quarter of them inline;
//! * 15% single inline `"source"` items from `kernels::synthetic_corpus`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use hlsim::Qor;
use qor_core::Session;
use serve::{json, Server};

use crate::encode::Target;
use crate::ladder::{self, Exchange, Key, Pool, PoolEntry, Request};
use crate::reference::{self, Rng, Unit};
use crate::setup;
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Inline sources in the pool. The corpus itself is fixed (generator
/// seeds `SYNTH_BASE..`), so the seed changes which sources are sent, not
/// how large they are.
const SYNTH_SOURCES: usize = 64;

/// First generator seed of the inline-source corpus.
const SYNTH_BASE: u64 = 1;

/// Configurations kept per inline source.
const SYNTH_CONFIGS: usize = 32;

/// Seeded request generator over a pool whose first `kernels` entries are
/// bundled kernels and the rest inline sources.
pub struct Mix<'a> {
    pool: &'a Pool,
    kernels: usize,
    rng: Rng,
}

impl<'a> Mix<'a> {
    /// The generator of one client.
    pub fn new(pool: &'a Pool, kernels: usize, seed: u64, client: usize) -> Mix<'a> {
        Mix {
            pool,
            kernels,
            rng: Rng::new(seed, 100 + client as u64),
        }
    }

    fn pick(&mut self, inline: bool) -> Key {
        let e = if inline {
            self.kernels + self.rng.below(self.pool.entries.len() - self.kernels)
        } else {
            self.rng.below(self.kernels)
        };
        (e, self.rng.below(self.pool.entries[e].configs.len()))
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let roll = self.rng.below(100);
        let keys: Vec<Key> = if roll < 60 {
            vec![self.pick(false)]
        } else if roll < 85 {
            let n = 2 + self.rng.below(5);
            (0..n)
                .map(|_| {
                    let inline = self.rng.below(4) == 0;
                    self.pick(inline)
                })
                .collect()
        } else {
            vec![self.pick(true)]
        };
        self.pool.request(keys, (60..85).contains(&roll))
    }
}

/// The 16 bundled kernels' full spaces plus the inline-source corpus.
fn mix_pool() -> Result<(Pool, usize), String> {
    let names: Vec<&'static str> = kernels::all().iter().map(|k| k.name).collect();
    let mut pool = Pool::default();
    for space in setup::kernel_spaces(&names)? {
        pool.entries.push(PoolEntry {
            target: Target::Kernel(space.name),
            source: kernels::kernel_source(space.name)
                .ok_or("kernel vanished")?
                .to_string(),
            func: space.func,
            configs: space.configs,
        });
    }
    let n_kernels = pool.entries.len();
    for (top, text) in kernels::synthetic_corpus(SYNTH_SOURCES, SYNTH_BASE) {
        let func = setup::lower(&top, &text)?;
        let configs = kernels::design_space(&func).enumerate_capped(SYNTH_CONFIGS);
        pool.entries.push(PoolEntry {
            target: Target::Source {
                top,
                text: text.clone(),
            },
            source: text,
            func: Arc::new(func),
            configs,
        });
    }
    Ok((pool, n_kernels))
}

/// A trained model behind a running server; dropping it stops the server.
struct Served {
    ckpt: Vec<u8>,
    server: Option<serve::ServerHandle>,
}

impl Served {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup_served() -> Result<Served, String> {
    let ckpt = setup::trained_checkpoint()?;
    let server = Server::bind("127.0.0.1:0", Session::new(setup::load(&ckpt)?))
        .and_then(Server::spawn)
        .map_err(|e| format!("server: {e}"))?;
    Ok(Served {
        ckpt,
        server: Some(server),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (pool, n_kernels) = mix_pool()?;
    let (mut served, setup_s, same) =
        crate::repeated_setup(args, setup_served, |s| setup::fnv(&s.ckpt))?;
    if args.trace {
        drop(served.server.take());
        let keys = mix_keys(&pool, n_kernels, args.seed);
        return ladder::run(
            args,
            ladder::Input {
                ckpt: std::mem::take(&mut served.ckpt),
                pool,
                items: keys,
                mix: Some((n_kernels, args.seed)),
            },
        );
    }
    let mut out = Outcome::default();
    out.check(same, || "repeated setups trained different models".into());
    let setup_rss = setup::peak_rss_mb();

    let addr = served.addr();
    let make = |client: usize| {
        let mut mix = Mix::new(&pool, n_kernels, args.seed, client);
        move || mix.next_request()
    };
    let tracer = Tracer::new(false);
    let duration = Duration::from_secs_f64(args.seconds);
    let driven = ladder::drive(&tracer, addr, CLIENTS, duration, &make);
    let (exchanges, wall_s) = (&driven.exchanges, driven.wall_s);
    drop(served.server.take());

    let reference_model = setup::load(&served.ckpt)?;
    let qors = check_replies(&mut out, &pool, exchanges, &reference_model);

    let windows = windowed(exchanges, wall_s, &driven.steal);
    let items: usize = exchanges.iter().map(|x| x.keys.len()).sum();
    let mut rtt_ms: Vec<f64> = exchanges.iter().map(|x| x.rtt_us / 1e3).collect();
    rtt_ms.sort_by(f64::total_cmp);
    let calm = reference::calm_median(&windows.iter().map(|w| w.1).collect::<Vec<_>>());
    let mut rps: Vec<f64> = windows.iter().map(|w| w.0).collect();
    rps.sort_by(f64::total_cmp);
    out.metric("setup_s", setup_s, "s");
    out.metric("points_per_s", calm.per_s, "1/s");
    out.metric("latency_p50_ms", calm.p50_ms, "ms");
    out.metric("latency_p90_ms", calm.p90_ms, "ms");
    out.metric("peak_rss_mb", setup::peak_rss_mb(), "MiB");
    out.info(format!(
        "{} one-second windows: items/s median {:.0} over all, {:.0} over calm ones (steal <= {:.0} ticks/s); requests/s median {:.0}",
        windows.len(),
        reference::median(&windows.iter().map(|w| w.1.per_s).collect::<Vec<_>>()),
        calm.per_s,
        calm.steal_per_s,
        reference::percentile(&rps, 50.0),
    ));
    let inline = exchanges
        .iter()
        .flat_map(|x| &x.keys)
        .filter(|k| k.0 >= n_kernels)
        .count();
    out.info(format!(
        "{} requests ({:.1} req/s), {items} items ({inline} inline, {} distinct); p99 {:.3} ms",
        exchanges.len(),
        exchanges.len() as f64 / wall_s,
        qors,
        reference::percentile(&rtt_ms, 99.0)
    ));
    let sizes: Vec<usize> = pool.entries[..n_kernels]
        .iter()
        .map(|e| e.configs.len())
        .collect();
    out.info(format!(
        "pool: {n_kernels} kernels with {} configurations ({}..{} each), {} inline sources",
        sizes.iter().sum::<usize>(),
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0),
        pool.entries.len() - n_kernels
    ));
    out.info(format!(
        "peak RSS after setup {setup_rss:.1} MiB; {CLIENTS} clients, threads {}",
        par::threads()
    ));
    Ok(out)
}

/// Splits a run into whole one-second windows by reply completion (the
/// whole run when it is shorter than two seconds) and returns each
/// window's requests per second and its items-per-second, round-trip and
/// steal figures. `steal` holds the host's steal ticks at each whole
/// second of the run.
fn windowed(exchanges: &[Exchange], wall_s: f64, steal: &[u64]) -> Vec<(f64, Unit)> {
    let (n, width) = if wall_s >= 2.0 {
        (wall_s.floor() as usize, 1.0)
    } else {
        (1, wall_s.max(1e-9))
    };
    let mut buckets: Vec<Vec<&Exchange>> = (0..n).map(|_| Vec::new()).collect();
    for x in exchanges {
        let w = ((x.end_s / width) as usize).min(n - 1);
        buckets[w].push(x);
    }
    // steal over [i, i + 1) s, or over the whole run for a single window
    let steal_in = |i: usize| {
        let (a, b) = if n == 1 {
            (0, steal.len().saturating_sub(1))
        } else {
            (i, i + 1)
        };
        match (steal.get(a), steal.get(b)) {
            (Some(x), Some(y)) => (y - x) as f64 / width,
            _ => 0.0,
        }
    };
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, b)| {
            let mut ms: Vec<f64> = b.iter().map(|x| x.rtt_us / 1e3).collect();
            ms.sort_by(f64::total_cmp);
            let unit = Unit {
                per_s: b.iter().map(|x| x.keys.len()).sum::<usize>() as f64 / width,
                p50_ms: reference::percentile(&ms, 50.0),
                p90_ms: reference::percentile(&ms, 90.0),
                steal_per_s: steal_in(i),
            };
            (b.len() as f64 / width, unit)
        })
        .collect()
}

/// The ladder's designs: the items of the first requests of client 0's
/// stream, in order.
fn mix_keys(pool: &Pool, n_kernels: usize, seed: u64) -> Vec<Key> {
    let mut mix = Mix::new(pool, n_kernels, seed, 0);
    let mut keys = Vec::new();
    while keys.len() < ladder::ITEMS {
        keys.extend(mix.next_request().keys);
    }
    keys.truncate(ladder::ITEMS);
    keys
}

/// Counts attempted and failed items and checks every successful item
/// against the reference model's uncached prediction of the same function
/// (lowered by the benchmark) and configuration. Returns the number of
/// distinct items.
pub fn check_replies(
    out: &mut Outcome,
    pool: &Pool,
    exchanges: &[Exchange],
    model: &qor_core::HierarchicalModel,
) -> usize {
    let mut got: Vec<(Key, Qor)> = Vec::new();
    for x in exchanges {
        out.attempted += x.keys.len() as u64;
        let doc = (x.status == 200)
            .then(|| json::parse(&x.reply).ok())
            .flatten();
        let Some(doc) = doc else {
            out.failed += x.keys.len() as u64;
            out.check(false, || {
                format!(
                    "status {} for {} item(s): {:.200}",
                    x.status,
                    x.keys.len(),
                    x.reply
                )
            });
            continue;
        };
        let results: Vec<&obs::Json> = if x.batched {
            json::field(&doc, "results")
                .and_then(json::as_array)
                .map(|r| r.iter().collect())
                .unwrap_or_default()
        } else {
            vec![&doc]
        };
        if results.len() != x.keys.len() {
            out.failed += x.keys.len() as u64;
            out.check(false, || {
                format!("{} results for {} items", results.len(), x.keys.len())
            });
            continue;
        }
        for (key, r) in x.keys.iter().zip(results) {
            match qor_of(r) {
                Some(q) => got.push((*key, q)),
                None => {
                    out.failed += 1;
                    out.check(false, || format!("item error: {:.200}", r.to_string()));
                }
            }
        }
    }
    let distinct: BTreeMap<Key, ()> = got.iter().map(|(k, _)| (*k, ())).collect();
    let keys: Vec<Key> = distinct.into_keys().collect();
    let want = par::map("bench/serve_check", &keys, |_, &(e, c)| {
        let entry = &pool.entries[e];
        model.predict(&entry.func, &entry.configs[c])
    });
    let want: BTreeMap<Key, Qor> = keys.iter().copied().zip(want).collect();
    for (key, q) in &got {
        out.check(want[key] == *q, || {
            format!("item {key:?}: served {q:?}, in-process {:?}", want[key])
        });
    }
    keys.len()
}

/// The `"qor"` object of one reply or result entry.
pub fn qor_of(v: &obs::Json) -> Option<Qor> {
    let q = json::field(v, "qor")?;
    let get = |k| json::field(q, k).and_then(json::as_u64);
    Some(Qor {
        latency: get("latency")?,
        lut: get("lut")?,
        ff: get("ff")?,
        dsp: get("dsp")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_has_every_request_shape() {
        let (pool, n_kernels) = mix_pool().unwrap();
        assert_eq!(n_kernels, 16);
        let draw = |seed| {
            let mut mix = Mix::new(&pool, n_kernels, seed, 0);
            (0..300).map(|_| mix.next_request()).collect::<Vec<_>>()
        };
        let a = draw(4);
        assert_eq!(
            a.iter().map(|r| r.body.clone()).collect::<Vec<_>>(),
            draw(4).iter().map(|r| r.body.clone()).collect::<Vec<_>>()
        );
        assert!(a.iter().any(|r| r.batched));
        assert!(a.iter().any(|r| !r.batched && r.keys[0].0 >= n_kernels));
        assert!(a.iter().any(|r| !r.batched && r.keys[0].0 < n_kernels));
        let singles = a.iter().filter(|r| !r.batched).count();
        assert!((200..=250).contains(&singles), "{singles} singles of 300");
        assert_ne!(a[0].body, draw(5)[0].body);
    }
}
