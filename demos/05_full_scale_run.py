"""The full-scale experiment: 1000 principals, ~2 sessions each.

Runs the default scenario, prints the headline metrics, and sketches the
active-session and traffic timeseries as coarse text plots.
"""

from crossrealm.harness import Scenario, aggregate
from crossrealm import simnet

scenario = Scenario()  # the default experiment setup
print(f"principals={scenario.principals}, sessions per principal drawn from "
      f"{{1,2,3}}, timeout mode {scenario.timeout_mode.encode()}, "
      f"seed {scenario.seed}")

run = simnet.run(scenario)
report = aggregate(run)

print()
print(f"sessions started:   {report['sessions.started']}")
print(f"sessions completed: {report['sessions.completed']}")
print(f"sessions dropped:   {report['sessions.dropped']}")
print(f"end-to-end mean:    {report['end_to_end_s.mean']:.2f} s "
      f"(p50 {report['end_to_end_s.p50']:.2f}, p99 {report['end_to_end_s.p99']:.2f})")
print("per-phase means (s):",
      " ".join(f"{report[f'per_phase_s.{k}.mean']:.2f}" for k in range(1, 14)))
print(f"peak traffic sent:  {report['traffic_bps.peak_sent'] / 1e6:.2f} Mbps")
print(f"mean traffic sent:  {report['traffic_bps.mean_sent'] / 1e6:.2f} Mbps")
print(f"max network delay:  {report['max_network_delay_s'] * 1e3:.2f} ms "
      "(handshake + serialization + propagation)")

def sketch(series, title, unit_scale=1.0, width=60, buckets=24):
    step = max(1, len(series) // buckets)
    chunks = [max(series[i:i + step]) for i in range(0, len(series), step)]
    top = max(chunks) or 1.0
    print(f"\n{title} (peak {top * unit_scale:.2f})")
    for i, value in enumerate(chunks):
        bar = "#" * int(width * value / top)
        print(f"  t={i * step:4d}s |{bar}")


sketch(report.active_sessions, "active sessions over time")
sketch(report.traffic_sent_bps, "authentication traffic sent, Mbps", 1e-6)
