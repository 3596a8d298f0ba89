"""One session end to end: the full 13-phase trace in simulated time.

Runs a single-principal scenario and prints every event record, then
shows that the principal ends up holding a session key the clouds accept
only when presented by the session handler.
"""

from crossrealm import protocol, simnet
from crossrealm.harness import Scenario
from crossrealm.protocol import Role, RoleState, grant_access

# A run lets go of a session's slots when the session ends, so the slots
# each role's transitions return are kept here as the engine takes them.
slots = {role: {} for role in Role}


def keeping(transition):
    def kept(state, *args):
        result = transition(state, *args)
        if result.slot is not None:  # args[-2] is the session or the message
            slots[state.role][args[-2].session_id] = result.slot
        return result
    return kept


protocol.begin_phase = keeping(protocol.begin_phase)
protocol.handle_message = keeping(protocol.handle_message)

scenario = Scenario(principals=1, sessions_per_principal=1,
                    session_spread_s=1.0, horizon_s=400.0, seed=3)
run = simnet.run(scenario)
roles = {role: RoleState(role, run.role_states[role].hosted_resources, slots[role])
         for role in Role}

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
keyset = roles[Role.SAC].sessions[session.session_id].keyset
print("session key generation:", keyset.generation)

held = roles[Role.A].sessions[session.session_id].requester_key
print("principal holds a session key:", held is not None)
print("CloudA grants R1 via SAC-SH:   ",
      grant_access(roles[Role.CLOUD_A], Role.SAC_SH, held, "R1"))
print("CloudA refuses A presenting directly:",
      not grant_access(roles[Role.CLOUD_A], Role.A, held, "R1"))
