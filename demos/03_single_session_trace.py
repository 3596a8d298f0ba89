"""One session end to end: the full 13-phase trace in simulated time.

Runs a single-principal scenario and prints every event record, then
shows that the principal ends up holding a session key the clouds accept
only when presented by the session handler.
"""

from crossrealm import simnet
from crossrealm.harness import Scenario
from crossrealm.protocol import Role, grant_access

scenario = Scenario(principals=1, sessions_per_principal=1,
                    session_spread_s=1.0, horizon_s=400.0, seed=3)
run = simnet.run(scenario)

print(f"{'time_s':>10}  {'kind':16} {'route':18} {'ph':>2} {'bytes':>5}  outcome")
for r in run.records:
    route = f"{r.source}->{r.destination}" if r.destination else r.source
    ph = r.phase_index if r.phase_index is not None else ""
    size = r.payload_bytes if r.payload_bytes is not None else ""
    print(f"{r.time_s:10.4f}  {r.kind:16} {route:18} {ph:>2} {size:>5}  {r.outcome}")

session = next(iter(run.sessions.values()))
print()
print("status:", session.status.value, "after phase", session.current_phase)
print("end-to-end:", round(session.ended_at - session.started_at, 3), "s")
keyset = run.role_states[Role.SAC].sessions[session.session_id].keyset
print("session key generation:", keyset.generation)

held = run.role_states[Role.A].sessions[session.session_id].requester_key
print("principal holds a session key:", held is not None)
print("CloudA grants R1 via SAC-SH:   ",
      grant_access(run.role_states[Role.CLOUD_A], Role.SAC_SH, held, "R1"))
print("CloudA refuses A presenting directly:",
      not grant_access(run.role_states[Role.CLOUD_A], Role.A, held, "R1"))
