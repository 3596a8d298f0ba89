"""Hierarchical key derivation and session-key minting.

Every credential in the framework is built from three 32-byte parts: a
cloud root part, a sub-domain part, and a leaf part that is either a
tenant's private part or a session part. Derivation is a keyed
pseudorandom function (HMAC-SHA256) chained down the hierarchy, with a
distinct domain-separation label per role:

    root      = HMAC(master_secret,  "crossrealm.v1.root|" + cloud_id)
    subdomain = HMAC(root,           "crossrealm.v1.subdomain|" + subdomain_id)
    private   = HMAC(subdomain,      "crossrealm.v1.private|" + signature)

Session leaf parts are not pure PRF outputs: the 16-byte session field
and a 4-byte generation counter must be recoverable from the part, so a
session leaf is laid out as

    session_id (16) || generation (4, big-endian) || binding tag (12)

where the tag is the truncated HMAC of the session field, generation,
and participant identity under the sub-domain part. Two keys minted for
one session therefore share bytes 0..19 of their leaves (the common
session field) while their root, sub-domain, and tag bytes vary with the
participant's home realm.

All values here are immutable and all derivations are pure functions,
so they are safe to share across threads without coordination.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Protocol

from .errors import InvalidInput, RoleMismatch

PART_LEN = 32
SESSION_FIELD_LEN = 16
GENERATION_LEN = 4

_LABEL_ROOT = b"crossrealm.v1.root|"
_LABEL_SUBDOMAIN = b"crossrealm.v1.subdomain|"
_LABEL_PRIVATE = b"crossrealm.v1.private|"
_LABEL_SESSION = b"crossrealm.v1.session|"
_LABEL_SIGNATURE = b"crossrealm.v1.signature|"


class KeyRole(Enum):
    ROOT = "root"
    SUBDOMAIN = "subdomain"
    PRIVATE = "private"
    SESSION = "session"


def _prf(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


@dataclass(frozen=True)
class KeyPart:
    """One 32-byte component of a hierarchical key."""

    bytes: bytes
    role: KeyRole

    def __post_init__(self):
        if len(self.bytes) != PART_LEN:
            raise InvalidInput(f"key part must be {PART_LEN} bytes, got {len(self.bytes)}")

    def hex(self) -> str:
        return self.bytes.hex()


@dataclass(frozen=True)
class DigitalSignature:
    """Deterministic 32-byte digest of a tenant's personal secrets."""

    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != PART_LEN:
            raise InvalidInput(f"signature must be {PART_LEN} bytes, got {len(self.bytes)}")


@dataclass(frozen=True)
class HierarchicalKey:
    """A (root, sub-domain, leaf) credential triple.

    The leaf is a private part for tenant credentials or a session part
    for minted session keys.
    """

    root: KeyPart
    subdomain: KeyPart
    leaf: KeyPart

    def __post_init__(self):
        if self.root.role is not KeyRole.ROOT:
            raise RoleMismatch(f"root position holds a {self.root.role.value} part")
        if self.subdomain.role is not KeyRole.SUBDOMAIN:
            raise RoleMismatch(f"subdomain position holds a {self.subdomain.role.value} part")
        if self.leaf.role not in (KeyRole.PRIVATE, KeyRole.SESSION):
            raise RoleMismatch(f"leaf position holds a {self.leaf.role.value} part")

    def decompose(self) -> tuple[KeyPart, KeyPart, KeyPart]:
        return (self.root, self.subdomain, self.leaf)

    def session_field(self) -> bytes:
        """The 16-byte session id encoded in a session leaf."""
        if self.leaf.role is not KeyRole.SESSION:
            raise RoleMismatch("key has no session field: leaf is a private part")
        return self.leaf.bytes[:SESSION_FIELD_LEN]

    def generation(self) -> int:
        """The refresh counter encoded in a session leaf."""
        if self.leaf.role is not KeyRole.SESSION:
            raise RoleMismatch("key has no generation: leaf is a private part")
        start = SESSION_FIELD_LEN
        return int.from_bytes(self.leaf.bytes[start:start + GENERATION_LEN], "big")


@dataclass(frozen=True)
class SessionKeySet:
    """All keys minted for one session at one generation.

    ``keys`` maps participant identity to that participant's key. Every
    leaf encodes the same ``session_id`` and ``generation``; root and
    sub-domain parts vary with each participant's home realm.
    """

    session_id: bytes
    keys: Mapping[str, HierarchicalKey]
    generation: int

    def __post_init__(self):
        if len(self.session_id) != SESSION_FIELD_LEN:
            raise InvalidInput(f"session id must be {SESSION_FIELD_LEN} bytes")
        object.__setattr__(self, "keys", MappingProxyType(dict(self.keys)))


class RealmDirectory(Protocol):
    """Read handle onto the vault: resolves a realm to its stored keys."""

    def realm_keys(self, cloud_id: str, subdomain_id: str) -> tuple[KeyPart, KeyPart]:
        ...


# (identity, cloud_id, subdomain_id)
Participant = tuple[str, str, str]


def derive_root_key(cloud_id: str, master_secret: bytes) -> KeyPart:
    """Derive a cloud's root part from its master secret.

    Deterministic; distinct cloud ids give distinct parts.
    """
    if not cloud_id:
        raise InvalidInput("cloud_id must be non-empty")
    if not master_secret:
        raise InvalidInput("master_secret must be non-empty")
    return KeyPart(_prf(master_secret, _LABEL_ROOT + cloud_id.encode()), KeyRole.ROOT)


def derive_subdomain_key(root: KeyPart, subdomain_id: str) -> KeyPart:
    """Derive a sub-domain part bound to its parent cloud root."""
    if root.role is not KeyRole.ROOT:
        raise RoleMismatch(f"expected a root part, got {root.role.value}")
    if not subdomain_id:
        raise InvalidInput("subdomain_id must be non-empty")
    return KeyPart(_prf(root.bytes, _LABEL_SUBDOMAIN + subdomain_id.encode()), KeyRole.SUBDOMAIN)


def issue_private_key(signature: DigitalSignature, subdomain: KeyPart) -> KeyPart:
    """Issue a tenant's private part bound to (signature, sub-domain)."""
    if subdomain.role is not KeyRole.SUBDOMAIN:
        raise RoleMismatch(f"expected a subdomain part, got {subdomain.role.value}")
    return KeyPart(_prf(subdomain.bytes, _LABEL_PRIVATE + signature.bytes), KeyRole.PRIVATE)


def derive_signature(tenant_id: str, extension_metadata: Mapping[str, str]) -> DigitalSignature:
    """Digest a tenant's personal secrets into a digital signature.

    The serialization is canonical (metadata classes sorted by name) and
    includes the tenant id, so two tenants with identical secrets still
    sign differently.
    """
    if not extension_metadata:
        raise InvalidInput("extension_metadata must be non-empty")
    canon = b"\x1f".join(
        k.encode() + b"\x1e" + v.encode() for k, v in sorted(extension_metadata.items())
    )
    digest = hashlib.sha256(_LABEL_SIGNATURE + tenant_id.encode() + b"|" + canon).digest()
    return DigitalSignature(digest)


def _session_leaf(subdomain: KeyPart, session_id: bytes, generation: int, identity: str) -> KeyPart:
    gen = generation.to_bytes(GENERATION_LEN, "big")
    tag = _prf(subdomain.bytes, _LABEL_SESSION + session_id + gen + b"|" + identity.encode())
    tag_len = PART_LEN - SESSION_FIELD_LEN - GENERATION_LEN
    return KeyPart(session_id + gen + tag[:tag_len], KeyRole.SESSION)


def _mint(session_id: bytes, participants: Iterable[Participant],
          vault: RealmDirectory, generation: int) -> SessionKeySet:
    keys = {}
    for identity, cloud_id, subdomain_id in participants:
        root, subdomain = vault.realm_keys(cloud_id, subdomain_id)
        leaf = _session_leaf(subdomain, session_id, generation, identity)
        keys[identity] = HierarchicalKey(root, subdomain, leaf)
    return SessionKeySet(session_id=session_id, keys=keys, generation=generation)


def mint_session_keys(session_id: bytes, participants: list[Participant],
                      vault: RealmDirectory) -> SessionKeySet:
    """Mint one key per participant, all sharing the session field.

    Every participant must be a tenant realm the vault knows; the vault
    handle raises UnregisteredRealm otherwise.
    """
    if len(session_id) != SESSION_FIELD_LEN:
        raise InvalidInput(f"session id must be {SESSION_FIELD_LEN} bytes")
    if not participants:
        raise InvalidInput("participants must be non-empty")
    return _mint(session_id, participants, vault, generation=0)


def refresh_session(key_set: SessionKeySet, new_participants: list[Participant],
                    vault: RealmDirectory) -> SessionKeySet:
    """Re-mint the set for a new participant list, bumping the generation.

    The bump happens even when the membership is unchanged; keys of any
    earlier generation stop verifying against the returned set.
    """
    if not new_participants:
        raise InvalidInput("refresh requires at least one participant")
    return _mint(key_set.session_id, new_participants, vault,
                 generation=key_set.generation + 1)


def verify_session_key(key: HierarchicalKey, key_set: SessionKeySet) -> bool:
    """True iff ``key`` is a member of the set's current generation.

    Each member's key bytes are compared in constant time.
    """
    if key.leaf.role is not KeyRole.SESSION:
        return False
    presented = b"".join(part.bytes for part in key.decompose())
    return any(hmac.compare_digest(presented, b"".join(part.bytes for part in member.decompose()))
               for member in key_set.keys.values())
