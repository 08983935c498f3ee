//! The run-settings table: every [`CampaignConfig`] field a spec file,
//! the command line, and the run manifest can name, in one place.
//!
//! Each consumer walks [`RUN_SETTINGS`]: [`crate::spec::parse_spec`]
//! reads a spec file's `[run]` keys, `anonroute campaign` applies its
//! `--flag` overrides, and [`crate::manifest`] renders and validates the
//! manifest's `config` object. None of them names a setting itself, so
//! adding a run setting is a `CampaignConfig` field (with its `Default`)
//! plus one row here.

use std::path::PathBuf;

use anonroute_obs::json_escape;

use crate::runner::CampaignConfig;

/// A setting's type and its accessors on [`CampaignConfig`].
#[derive(Debug, Clone, Copy)]
pub enum Access {
    /// A non-negative integer: a bare integer in a spec file, a number
    /// in the manifest.
    Count(fn(&CampaignConfig) -> u64, fn(&mut CampaignConfig, u64)),
    /// On or off: `true`/`false` in a spec file, a bare `--flag` (or
    /// `--flag true|false`) on the command line, a boolean in the
    /// manifest.
    Switch(fn(&CampaignConfig) -> bool, fn(&mut CampaignConfig, bool)),
    /// An optional text value: a quoted string in a spec file, a string
    /// or `null` in the manifest. The setter validates the text.
    Text(
        fn(&CampaignConfig) -> Option<String>,
        fn(&mut CampaignConfig, &str) -> Result<(), String>,
    ),
}

/// One run setting: where it is named and how it is typed.
#[derive(Debug, Clone, Copy)]
pub struct RunSetting {
    /// Its key in a spec file's `[run]` section and in the manifest's
    /// `config` object.
    pub key: &'static str,
    /// Its `anonroute campaign` flag, without the leading `--`.
    pub flag: &'static str,
    /// Its type and accessors.
    pub access: Access,
}

/// Every run setting, in manifest order.
pub const RUN_SETTINGS: &[RunSetting] = &[
    RunSetting {
        key: "seed",
        flag: "seed",
        access: Access::Count(|c| c.seed, |c, v| c.seed = v),
    },
    RunSetting {
        key: "threads",
        flag: "threads",
        access: Access::Count(|c| c.threads as u64, |c, v| c.threads = v as usize),
    },
    RunSetting {
        key: "mc_samples",
        flag: "mc-samples",
        access: Access::Count(|c| c.mc_samples as u64, |c, v| c.mc_samples = v as usize),
    },
    RunSetting {
        key: "sim_messages",
        flag: "messages",
        access: Access::Count(
            |c| c.sim_messages as u64,
            |c, v| c.sim_messages = v as usize,
        ),
    },
    RunSetting {
        key: "sim_max_n",
        flag: "sim-max-n",
        access: Access::Count(|c| c.sim_max_n as u64, |c, v| c.sim_max_n = v as usize),
    },
    RunSetting {
        key: "live_messages",
        flag: "live-messages",
        access: Access::Count(
            |c| c.live_messages as u64,
            |c, v| c.live_messages = v as usize,
        ),
    },
    RunSetting {
        key: "live_max_n",
        flag: "live-max-n",
        access: Access::Count(|c| c.live_max_n as u64, |c, v| c.live_max_n = v as usize),
    },
    RunSetting {
        key: "live_cell_size",
        flag: "live-cell",
        access: Access::Count(
            |c| c.live_cell_size as u64,
            |c, v| c.live_cell_size = v as usize,
        ),
    },
    RunSetting {
        key: "progress",
        flag: "progress",
        access: Access::Switch(|c| c.progress, |c, v| c.progress = v),
    },
    RunSetting {
        key: "metrics_addr",
        flag: "metrics-addr",
        access: Access::Text(
            |c| c.metrics_addr.map(|a| a.to_string()),
            |c, v| {
                let addr = v
                    .parse()
                    .map_err(|e| format!("`{v}` is not a socket address ({e})"))?;
                c.metrics_addr = Some(addr);
                Ok(())
            },
        ),
    },
    RunSetting {
        key: "trace_out",
        flag: "trace-out",
        access: Access::Text(
            |c| c.trace_out.as_ref().map(|p| p.display().to_string()),
            |c, v| {
                c.trace_out = Some(PathBuf::from(v));
                Ok(())
            },
        ),
    },
];

impl RunSetting {
    /// The setting a spec or manifest `key` names, if any.
    pub fn by_key(key: &str) -> Option<&'static RunSetting> {
        RUN_SETTINGS.iter().find(|s| s.key == key)
    }

    /// Whether the setting is an on/off switch (a bare CLI flag).
    pub fn is_switch(&self) -> bool {
        matches!(self.access, Access::Switch(..))
    }

    /// Parses `text` as this setting's value and stores it in `config`.
    ///
    /// # Errors
    ///
    /// Returns a message (without the key or flag) when `text` does not
    /// parse.
    pub fn apply(&self, config: &mut CampaignConfig, text: &str) -> Result<(), String> {
        let unparsable = || format!("cannot parse `{text}`");
        match self.access {
            Access::Count(_, set) => set(config, text.parse().map_err(|_| unparsable())?),
            Access::Switch(_, set) => set(config, text.parse().map_err(|_| unparsable())?),
            Access::Text(_, set) => set(config, text)?,
        }
        Ok(())
    }

    /// The setting's value in `config` as a JSON value.
    pub fn render_json(&self, config: &CampaignConfig) -> String {
        match self.access {
            Access::Count(get, _) => get(config).to_string(),
            Access::Switch(get, _) => get(config).to_string(),
            Access::Text(get, _) => get(config).map_or_else(
                || "null".to_string(),
                |t| format!("\"{}\"", json_escape(&t)),
            ),
        }
    }
}
