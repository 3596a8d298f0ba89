"""The session authority's security vault and multi-tenant registry.

The vault is a strictly hierarchical in-memory store: cloud folders hold
the authoritative root keys, sub-domain subfolders hold the sub-domain
keys, and tenant records live under exactly one sub-domain. A tenant's
IDr is its reference to the cloud root key and its IDs the sub-domain
key; membership verification matches a presented (IDr, IDs) pair against
stored tenant records and never mutates anything.

Registrations are the only mutations and require exclusive access to the
vault; reads may proceed concurrently. Snapshots serialize the whole
structure to a single JSON document with byte strings hex-encoded
lowercase.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import keys as keylib
from .errors import (
    AlreadyRegistered,
    EmptyMetadata,
    UnknownCloud,
    UnknownSubdomain,
    UnknownTenant,
    UnregisteredRealm,
)
from .keys import DigitalSignature, KeyPart, KeyRole


@dataclass(frozen=True)
class TenantRecord:
    """One registered tenant: provider details, personal secrets, credentials."""

    tenant_id: str
    cloud_id: str
    subdomain_id: str
    primary_details: Mapping[str, str]
    extension_metadata: Mapping[str, str]
    signature: DigitalSignature
    idr: KeyPart
    ids: KeyPart


@dataclass
class _SubdomainFolder:
    subdomain_key: KeyPart
    tenants: dict[str, TenantRecord] = field(default_factory=dict)


@dataclass
class _CloudFolder:
    root_key: KeyPart
    subdomains: dict[str, _SubdomainFolder] = field(default_factory=dict)


class Vault:
    """Cloud folders, sub-domain subfolders, and tenant records."""

    def __init__(self):
        self.clouds: dict[str, _CloudFolder] = {}

    # -- registration (mutating) -------------------------------------------

    def register_cloud(self, cloud_id: str, master_secret: bytes) -> KeyPart:
        """Create a cloud folder and derive its root key."""
        if cloud_id in self.clouds:
            raise AlreadyRegistered(f"cloud {cloud_id!r} already registered")
        root = keylib.derive_root_key(cloud_id, master_secret)
        self.clouds[cloud_id] = _CloudFolder(root_key=root)
        return root

    def register_subdomain(self, cloud_id: str, subdomain_id: str) -> KeyPart:
        """Create a sub-domain subfolder and derive its key from the cloud root."""
        cloud = self.clouds.get(cloud_id)
        if cloud is None:
            raise UnknownCloud(f"cloud {cloud_id!r} not registered")
        if subdomain_id in cloud.subdomains:
            raise AlreadyRegistered(f"subdomain {subdomain_id!r} already under {cloud_id!r}")
        sub = keylib.derive_subdomain_key(cloud.root_key, subdomain_id)
        cloud.subdomains[subdomain_id] = _SubdomainFolder(subdomain_key=sub)
        return sub

    def register_tenant(self, cloud_id: str, subdomain_id: str, tenant_id: str,
                        primary_details: Mapping[str, str],
                        extension_metadata: Mapping[str, str],
                        ) -> tuple[KeyPart, KeyPart, KeyPart]:
        """Store a tenant record and issue its credentials.

        Returns (IDr, IDs, private part). The signature is computed from
        the personal secrets; the private part is issued to the caller
        and deliberately not stored in the vault.
        """
        folder = self._subdomain(cloud_id, subdomain_id)
        if tenant_id in folder.tenants:
            raise AlreadyRegistered(f"tenant {tenant_id!r} already under {cloud_id}/{subdomain_id}")
        if not extension_metadata:
            raise EmptyMetadata("extension metadata is required to generate a signature")
        signature = keylib.derive_signature(tenant_id, extension_metadata)
        private = keylib.issue_private_key(signature, folder.subdomain_key)
        idr = self.clouds[cloud_id].root_key
        ids = folder.subdomain_key
        folder.tenants[tenant_id] = TenantRecord(
            tenant_id=tenant_id,
            cloud_id=cloud_id,
            subdomain_id=subdomain_id,
            primary_details=dict(primary_details),
            extension_metadata=dict(extension_metadata),
            signature=signature,
            idr=idr,
            ids=ids,
        )
        return idr, ids, private

    # -- verification (read-only) ------------------------------------------

    def verify_membership(self, idr: KeyPart, ids: KeyPart) -> bool:
        """True iff some tenant record holds exactly this (IDr, IDs) pair."""
        return self.find_member(idr, ids) is not None

    def find_member(self, idr: KeyPart, ids: KeyPart) -> TenantRecord | None:
        """The first tenant record matching the pair, or None."""
        for cloud in self.clouds.values():
            if not hmac.compare_digest(cloud.root_key.bytes, idr.bytes):
                continue
            for folder in cloud.subdomains.values():
                if not hmac.compare_digest(folder.subdomain_key.bytes, ids.bytes):
                    continue
                for record in folder.tenants.values():
                    return record
        return None

    def match_personal_secrets(self, tenant_id: str, answers: Mapping[str, str]) -> bool:
        """True iff every stored metadata class is answered with the stored value."""
        record = self._tenant(tenant_id)
        return all(answers.get(cls) == value
                   for cls, value in record.extension_metadata.items())

    def realm_keys(self, cloud_id: str, subdomain_id: str) -> tuple[KeyPart, KeyPart]:
        """(root, sub-domain) keys for a realm; the minting read handle."""
        cloud = self.clouds.get(cloud_id)
        if cloud is None:
            raise UnregisteredRealm(f"cloud {cloud_id!r} not in vault")
        folder = cloud.subdomains.get(subdomain_id)
        if folder is None:
            raise UnregisteredRealm(f"subdomain {subdomain_id!r} not under cloud {cloud_id!r}")
        return cloud.root_key, folder.subdomain_key

    # -- snapshots -----------------------------------------------------------

    def to_snapshot(self) -> dict:
        """The whole vault as one JSON-serializable document."""
        return {
            "clouds": {
                cid: {
                    "root_key": cloud.root_key.hex(),
                    "subdomains": {
                        sid: {
                            "subdomain_key": folder.subdomain_key.hex(),
                            "tenants": {
                                tid: {
                                    "primary_details": dict(rec.primary_details),
                                    "extension_metadata": dict(rec.extension_metadata),
                                    "signature": rec.signature.bytes.hex(),
                                    "idr": rec.idr.hex(),
                                    "ids": rec.ids.hex(),
                                }
                                for tid, rec in folder.tenants.items()
                            },
                        }
                        for sid, folder in cloud.subdomains.items()
                    },
                }
                for cid, cloud in self.clouds.items()
            }
        }

    def save_snapshot(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_snapshot(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_snapshot(cls, doc: dict) -> "Vault":
        vault = cls()
        for cid, cdoc in doc["clouds"].items():
            cloud = _CloudFolder(root_key=KeyPart(bytes.fromhex(cdoc["root_key"]), KeyRole.ROOT))
            for sid, sdoc in cdoc["subdomains"].items():
                folder = _SubdomainFolder(
                    subdomain_key=KeyPart(bytes.fromhex(sdoc["subdomain_key"]), KeyRole.SUBDOMAIN))
                for tid, tdoc in sdoc["tenants"].items():
                    folder.tenants[tid] = TenantRecord(
                        tenant_id=tid,
                        cloud_id=cid,
                        subdomain_id=sid,
                        primary_details=dict(tdoc["primary_details"]),
                        extension_metadata=dict(tdoc["extension_metadata"]),
                        signature=DigitalSignature(bytes.fromhex(tdoc["signature"])),
                        idr=KeyPart(bytes.fromhex(tdoc["idr"]), KeyRole.ROOT),
                        ids=KeyPart(bytes.fromhex(tdoc["ids"]), KeyRole.SUBDOMAIN),
                    )
                cloud.subdomains[sid] = folder
            vault.clouds[cid] = cloud
        return vault

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "Vault":
        return cls.from_snapshot(json.loads(Path(path).read_text()))

    # -- internals -------------------------------------------------------------

    def _subdomain(self, cloud_id: str, subdomain_id: str) -> _SubdomainFolder:
        cloud = self.clouds.get(cloud_id)
        if cloud is None:
            raise UnknownCloud(f"cloud {cloud_id!r} not registered")
        folder = cloud.subdomains.get(subdomain_id)
        if folder is None:
            raise UnknownSubdomain(f"subdomain {subdomain_id!r} not under cloud {cloud_id!r}")
        return folder

    def _tenant(self, tenant_id: str) -> TenantRecord:
        for cloud in self.clouds.values():
            for folder in cloud.subdomains.values():
                record = folder.tenants.get(tenant_id)
                if record is not None:
                    return record
        raise UnknownTenant(f"tenant {tenant_id!r} not registered")
