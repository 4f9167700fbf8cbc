//! Programs: everything the server knows about one compiled program is one
//! [`Program`] entry of one table, `key → Arc<Program>`. `POST /compile`
//! creates entries; the first `POST /sessions` or `/run` builds the pool.
//!
//! Invariants every change here must keep:
//!
//! * **One entry per program.** The artifacts, the `/compile` reply's kernel
//!   descriptors (built once, with the entry — a cache hit parses nothing),
//!   the `devices` override, the pool and its last-known-good health all
//!   hang off the entry; nothing else in the server is keyed by program.
//! * **The table's lock is held for look-up and insert only** — never across
//!   a compile, a bitstream parse or a pool build. Callers clone the `Arc`
//!   out; session requests never come here at all (`sessions.rs`).
//! * **A pool build blocks only requests that need that pool.** It runs
//!   under the program's own slot lock, which also orders it against
//!   `/compile` recording an override: the override lands before the build
//!   or is checked against what was built, never dropped in between. The
//!   built gate is a write-once cell, so telemetry reads it without waiting.

use std::sync::{Arc, Mutex, OnceLock};

use ftn_cluster::{ArtifactCache, ClusterMachine, PoolGate};
use ftn_core::{Artifacts, CompilerOptions};
use ftn_fpga::DeviceModel;
use serde::{Serialize, Value};

use crate::conn::HandlerError;
use crate::telemetry::short_key;
use crate::{api, bad_request, decode, failed, lock, not_found, ServeState};

/// Per-pool readiness snapshot, for `/healthz` probes that land while the
/// pool's machine lock is held: a busy pool is not an unready pool, so the
/// probe answers from the most recent snapshot instead of queueing.
#[derive(Clone, Default)]
pub(crate) struct PoolHealth {
    pub(crate) devices_alive: Vec<bool>,
    pub(crate) queue_depths: Vec<u64>,
}

/// What the program's own lock guards.
#[derive(Default)]
struct PoolSlot {
    /// Device composition requested by `/compile` (`"devices":
    /// ["u280","u250",...]`), applied when the pool is built.
    devices: Option<Vec<DeviceModel>>,
    health: PoolHealth,
}

/// One compiled program.
pub(crate) struct Program {
    pub(crate) key: String,
    artifacts: Arc<Artifacts>,
    /// The `/compile` reply's kernel list: launch signature and resources
    /// of each kernel.
    kernels: Value,
    pool: OnceLock<Arc<PoolGate>>,
    slot: Mutex<PoolSlot>,
}

impl Program {
    fn new(key: String, artifacts: Arc<Artifacts>) -> Result<Program, String> {
        let signatures = api::kernel_signatures(&artifacts.bitstream)?;
        let kernels = (artifacts.bitstream.kernels.iter().zip(signatures))
            .map(|(k, (_, args))| {
                api::obj(vec![
                    ("name", k.name.to_value()),
                    ("args", args.to_value()),
                    ("lut", k.resources.lut.to_value()),
                    ("bram", k.resources.bram.to_value()),
                    ("dsp", k.resources.dsp.to_value()),
                    ("loops", k.schedule.len().to_value()),
                ])
            })
            .collect();
        Ok(Program {
            key,
            artifacts,
            kernels: Value::Arr(kernels),
            pool: OnceLock::new(),
            slot: Mutex::default(),
        })
    }

    /// The device composition the pool uses (or will use): the `/compile`
    /// override, else the server-wide `--devices` list, else `devices` ×
    /// U280.
    fn devices(&self, slot: &PoolSlot, state: &ServeState) -> Vec<DeviceModel> {
        match (&slot.devices, &state.config.device_models) {
            (Some(devices), _) => devices.clone(),
            (None, Some(models)) if !models.is_empty() => models.clone(),
            _ => vec![DeviceModel::u280(); state.config.devices.max(1)],
        }
    }

    /// The pool, built on first use under the slot lock.
    fn pool(&self, state: &ServeState) -> Result<Arc<PoolGate>, HandlerError> {
        let slot = lock(&self.slot);
        if let Some(gate) = self.pool.get() {
            return Ok(Arc::clone(gate));
        }
        let devices = self.devices(&slot, state);
        let mut machine = ClusterMachine::load(&self.artifacts, &devices).map_err(failed)?;
        // Every pool reports into the server's registry under its short
        // key, so one /metrics scrape covers queue waits, job counts and
        // device utilization across all pools, and draws its session ids
        // from the server's one source.
        machine.use_metrics(&state.metrics.registry, short_key(&self.key));
        machine.use_session_ids(&state.session_ids);
        let gate = Arc::new(PoolGate::new(machine));
        Ok(Arc::clone(self.pool.get_or_init(|| gate)))
    }

    /// Record a `/compile` `devices` override. A built pool's devices are
    /// fixed; re-POSTing the composition it runs on stays idempotent.
    fn set_devices(&self, specs: Vec<DeviceModel>, state: &ServeState) -> Result<(), HandlerError> {
        let mut slot = lock(&self.slot);
        if self.pool.get().is_none() {
            slot.devices = Some(specs);
            return Ok(());
        }
        let names = |models: &[DeviceModel]| -> Vec<String> {
            models.iter().map(|m| m.name.clone()).collect()
        };
        let existing = names(&self.devices(&slot, state));
        if existing != names(&specs) {
            return Err(bad_request(format!(
                "pool for key '{}' already runs on [{}]; its devices are fixed",
                self.key,
                existing.join(", ")
            )));
        }
        Ok(())
    }

    /// The pool's readiness right now, or as last seen when its machine
    /// lock is busy (`try_lock` under the slot lock never waits).
    pub(crate) fn health(&self, gate: &PoolGate) -> PoolHealth {
        let mut slot = lock(&self.slot);
        if let Some(machine) = gate.try_lock() {
            slot.health = PoolHealth {
                devices_alive: machine.devices_alive(),
                queue_depths: machine.queue_depths(),
            };
        }
        slot.health.clone()
    }
}

impl ServeState {
    /// Every built pool with its program, as an owned list: telemetry walks
    /// this, so the table's lock is never held while a machine lock is taken.
    pub(crate) fn pools_snapshot(&self) -> Vec<(Arc<Program>, Arc<PoolGate>)> {
        let programs = lock(&self.programs);
        let built = |p: &Arc<Program>| Some((Arc::clone(p), Arc::clone(p.pool.get()?)));
        programs.values().filter_map(built).collect()
    }

    /// The pool serving artifact `key`, built on first use.
    pub(crate) fn pool_for(&self, key: &str) -> Result<Arc<PoolGate>, HandlerError> {
        let program = lock(&self.programs).get(key).cloned();
        program
            .ok_or_else(|| not_found(format!("unknown artifact key '{key}' (compile first)")))?
            .pool(self)
    }

    pub(crate) fn compile(&self, body: &str) -> Result<Value, HandlerError> {
        let v = decode(api::parse_body, body)?;
        let source = api::get_str(&v, "source").map_err(bad_request)?;
        let options = CompilerOptions {
            fix_mac_pattern: api::get_bool_or(&v, "fix_mac_pattern", false),
            ..Default::default()
        };
        let key = ArtifactCache::key(source, &options);
        // Optional heterogeneous pool composition for this artifact key.
        // Parsed up front, recorded only after a successful compile (a
        // failing source must not leave stale overrides behind).
        let specs = match v.get("devices") {
            Some(Value::Arr(items)) => Some(
                items
                    .iter()
                    .map(|d| match d {
                        Value::Str(s) => DeviceModel::named(s)
                            .ok_or_else(|| bad_request(format!("unknown device '{s}'"))),
                        other => Err(bad_request(format!("bad device spec {other:?}"))),
                    })
                    .collect::<Result<Vec<DeviceModel>, HandlerError>>()?,
            ),
            Some(Value::Str(list)) => Some(
                DeviceModel::parse_list(list)
                    .ok_or_else(|| bad_request(format!("bad device list '{list}'")))?,
            ),
            Some(_) => {
                return Err(bad_request(
                    "'devices' must be a list of model names or a comma-separated string",
                ))
            }
            None => None,
        };
        if specs.as_ref().is_some_and(|s| s.is_empty()) {
            return Err(bad_request("'devices' must name at least one device"));
        }
        let (artifacts, cached) = self
            .cache
            .get_or_compile_with_hit(&options, source)
            .map_err(bad_request)?;
        let existing = lock(&self.programs).get(&key).cloned();
        let program = match existing {
            Some(program) => program,
            None => {
                // Built outside the table lock (it parses the bitstream);
                // when two first compiles race, one entry wins.
                let new = Arc::new(Program::new(key.clone(), artifacts).map_err(failed)?);
                Arc::clone(lock(&self.programs).entry(key.clone()).or_insert(new))
            }
        };
        if let Some(specs) = specs {
            program.set_devices(specs, self)?;
        }
        let devices: Vec<String> = (program.devices(&lock(&program.slot), self).iter())
            .map(|d| d.name.clone())
            .collect();
        Ok(api::obj(vec![
            ("key", key.to_value()),
            ("cached", cached.to_value()),
            ("kernels", program.kernels.clone()),
            ("devices", devices.to_value()),
        ]))
    }
}
