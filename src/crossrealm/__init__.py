"""Multiparty cross-realm session authentication with a session authority.

The package has five parts:

- :mod:`crossrealm.keys` — hierarchical key derivation (cloud root,
  sub-domain, private/session parts) and session-key minting with a
  common session field across participants.
- :mod:`crossrealm.vault` — the session authority's security vault:
  cloud folders, sub-domain subfolders, tenant records, and membership
  verification.
- :mod:`crossrealm.protocol` — the 13-phase session approval protocol as
  pure per-role state machines with per-phase and localized timeout
  semantics.
- :mod:`crossrealm.simnet` — a deterministic discrete-event simulator of
  the two-switch topology that drives the protocol in simulated time.
- :mod:`crossrealm.harness` — scenario files, experiment orchestration,
  metrics reports, and acceptance checking. ``crossrealm.cli`` exposes
  the ``run`` / ``validate`` / ``check`` subcommands.
"""

from .errors import CrossRealmError
from .keys import (
    DigitalSignature,
    HierarchicalKey,
    KeyPart,
    KeyRole,
    SessionKeySet,
    derive_root_key,
    derive_signature,
    derive_subdomain_key,
    issue_private_key,
    mint_session_keys,
    refresh_session,
    verify_session_key,
)
from .protocol import (
    PHASES,
    MessageKind,
    PhaseSpec,
    ProtocolMessage,
    Role,
    SessionState,
    SessionStatus,
    TimeoutMode,
    advance_phase,
    grant_access,
    handle_message,
    localized_timeout_at_f,
    on_timeout,
)
from .vault import TenantRecord, Vault
from .simnet import (
    ConnectionModel,
    SimRun,
    Stall,
    Topology,
    inject_stall,
    run,
)
from .harness import (
    MetricsReport,
    Scenario,
    check_acceptance,
    emit_report,
    load_scenario,
    run_experiment,
    save_scenario,
)

__version__ = "0.1.0"
