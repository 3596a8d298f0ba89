"""Hierarchical keys: cloud root -> sub-domain -> tenant/session parts.

Walks the derivation chain by hand, then mints a multi-participant
session key set and shows the common session field with varied realm
parts, and what a refresh does to older keys.
"""

from crossrealm.keys import (
    DigitalSignature,
    HierarchicalKey,
    derive_root_key,
    derive_signature,
    derive_subdomain_key,
    issue_private_key,
    mint_session_keys,
    refresh_session,
    verify_session_key,
)
from crossrealm.vault import Vault

# Every cloud has one root part derived from its master secret.
root_a = derive_root_key("CloudA", b"master-secret-of-cloud-a")
root_b = derive_root_key("CloudB", b"master-secret-of-cloud-b")
print("root  CloudA:", root_a.hex()[:32], "...")
print("root  CloudB:", root_b.hex()[:32], "...")

# Sub-domain parts are bound to their parent root.
hr_a = derive_subdomain_key(root_a, "hr")
hr_b = derive_subdomain_key(root_b, "hr")
print('sub   CloudA/"hr":', hr_a.hex()[:32], "...")
print('sub   CloudB/"hr":', hr_b.hex()[:32], "... (same label, different parent)")

# A tenant's private part comes from the digital signature over its
# personal secrets plus the sub-domain part.
signature: DigitalSignature = derive_signature(
    "alice", {"spouse": "bob", "pet": "rex", "first_school": "hilltop"})
private = issue_private_key(signature, hr_a)
credential = HierarchicalKey(root_a, hr_a, private)
print("tenant credential decomposes back to its parts:",
      tuple(credential) == (root_a, hr_a, private))

# Session keys: one per participant, all sharing one 16-byte session field.
vault = Vault()
vault.register_cloud("CloudA", b"master-secret-of-cloud-a")
vault.register_cloud("CloudB", b"master-secret-of-cloud-b")
vault.register_subdomain("CloudA", "hr")
vault.register_subdomain("CloudB", "analytics")

session_id = bytes(range(16))
key_set = mint_session_keys(
    session_id,
    [("alice", "CloudA", "hr"), ("carol", "CloudB", "analytics")],
    vault,
)
for who, key in key_set.keys.items():
    print(f"{who}: session field {key.session_field().hex()} "
          f"generation {key.generation()} root {key.root.hex()[:16]}...")

# Membership changes refresh the set; older generations stop verifying.
old_key = key_set.keys["alice"]
key_set2 = refresh_session(
    key_set,
    [("alice", "CloudA", "hr"), ("carol", "CloudB", "analytics"),
     ("dave", "CloudB", "analytics")],
    vault,
)
print("after refresh: generation", key_set2.generation)
print("old generation-0 key still verifies?", verify_session_key(old_key, key_set2))
print("new key verifies?", verify_session_key(key_set2.keys["alice"], key_set2))
