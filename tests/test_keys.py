"""Tests for hierarchical key derivation and session-key minting.

The *_ORACLE constants were produced by evaluating the documented
HMAC-SHA256 construction directly (hmac.new(key, label + payload)
chains), independently of the implementation under test, and frozen
here.
"""

import hashlib
import hmac
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import keys as keylib
from crossrealm.errors import EmptyMetadata, InvalidInput, RoleMismatch, UnregisteredRealm
from crossrealm.keys import (
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
from crossrealm.vault import Vault

ZERO_SECRET = b"\x00" * 32

ROOT_ORACLE = "3655a002a690b780618433e0164dec46c5e0d6a4445a597216a8bb0adc012d5a"
SUB_ORACLE = "e7afca401e255e5e94e19e4069b86c08c2d7ffed303656b17c99a4668b355a14"
PRIV_ORACLE = "9ec49a0cd422c8bbd3ae0e9f488b5e35edd8d9b75e9d197fc894de5725e27809"
SIG_ORACLE = "c663095092c6fa0a940931c45e109e43a11a41122ed5f051402071c23c5961ca"


def make_vault(clouds=(("CloudA", ("s1",)), ("CloudB", ("s2",)))) -> Vault:
    vault = Vault()
    for cloud, subs in clouds:
        vault.register_cloud(cloud, b"secret-" + cloud.encode())
        for sub in subs:
            vault.register_subdomain(cloud, sub)
    return vault


# -- derivation ---------------------------------------------------------------

def test_root_key_matches_frozen_oracle():
    part = derive_root_key("CloudA", ZERO_SECRET)
    assert part.bytes.hex() == ROOT_ORACLE
    assert part.role is KeyRole.ROOT


def test_root_key_deterministic_and_label_sensitive():
    a1 = derive_root_key("CloudA", b"s")
    a2 = derive_root_key("CloudA", b"s")
    b = derive_root_key("CloudB", b"s")
    assert a1 == a2
    assert a1.bytes != b.bytes


def test_root_key_rejects_empty_inputs():
    with pytest.raises(InvalidInput):
        derive_root_key("", b"s")
    with pytest.raises(InvalidInput):
        derive_root_key("CloudA", b"")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: derive_subdomain_key(derive_root_key("CloudA", b"s"), ""),
                 id="subdomain-id"),
    pytest.param(lambda: derive_signature("t1", {}), id="metadata"),
    pytest.param(lambda: derive_signature("", {"pet": "rex"}), id="tenant-id"),
    pytest.param(lambda: make_vault().register_tenant("CloudA", "s1", "", {}, {"pet": "rex"}),
                 id="registered-tenant-id"),
    pytest.param(lambda: mint_session_keys(b"\x01" * 16, [], make_vault()), id="participants"),
])
def test_empty_inputs_are_invalid_input(build):
    with pytest.raises(InvalidInput):
        build()


def test_the_signature_refuses_empty_metadata_as_empty_metadata():
    # the one check of the rule, which the vault's registration reaches
    # through it; an EmptyMetadata is still an InvalidInput
    assert issubclass(EmptyMetadata, InvalidInput)
    with pytest.raises(EmptyMetadata, match="extension metadata is required"):
        derive_signature("t1", {})


# a call given a cloud or sub-domain id that is not text -> that id
_NOT_TEXT_IDS = {
    "root-key": (lambda: derive_root_key(5, b"s"), 5),
    "subdomain-key": (lambda: derive_subdomain_key(derive_root_key("CloudA", b"s"), 7), 7),
    "registered-cloud": (lambda: Vault().register_cloud(5, b"s"), 5),
    "registered-subdomain": (lambda: make_vault().register_subdomain("CloudA", 7), 7),
}


@pytest.mark.parametrize("case", _NOT_TEXT_IDS)
def test_a_realm_id_that_is_not_text_is_invalid_input(case):
    build, culprit = _NOT_TEXT_IDS[case]
    with pytest.raises(InvalidInput, match=f"id {culprit!r} is not text"):
        build()


def test_root_key_takes_a_bytearray_secret_and_refuses_text():
    # a bytearray secret derives what its bytes derive, as under hmac.new
    assert derive_root_key("CloudA", bytearray(ZERO_SECRET)).bytes.hex() == ROOT_ORACLE
    with pytest.raises(InvalidInput, match="str"):
        derive_root_key("CloudA", "secret")


def test_subdomain_key_matches_frozen_oracle():
    root = derive_root_key("CloudA", ZERO_SECRET)
    sub = derive_subdomain_key(root, "hr")
    assert sub.bytes.hex() == SUB_ORACLE
    assert sub.role is KeyRole.SUBDOMAIN


def test_subdomain_key_bound_to_parent():
    root_a = derive_root_key("CloudA", b"s")
    root_b = derive_root_key("CloudB", b"s")
    assert derive_subdomain_key(root_a, "hr") == derive_subdomain_key(root_a, "hr")
    assert derive_subdomain_key(root_a, "hr") != derive_subdomain_key(root_b, "hr")


def test_subdomain_key_rejects_wrong_role():
    sub = derive_subdomain_key(derive_root_key("CloudA", b"s"), "hr")
    with pytest.raises(RoleMismatch):
        derive_subdomain_key(sub, "deeper")


def test_private_key_matches_frozen_oracle():
    root = derive_root_key("CloudA", ZERO_SECRET)
    sub = derive_subdomain_key(root, "hr")
    priv = issue_private_key(DigitalSignature(b"\x11" * 32), sub)
    assert priv.bytes.hex() == PRIV_ORACLE
    assert priv.role is KeyRole.PRIVATE


def test_private_key_distinct_per_signature():
    sub = derive_subdomain_key(derive_root_key("CloudA", b"s"), "hr")
    p1 = issue_private_key(DigitalSignature(b"\x01" * 32), sub)
    p2 = issue_private_key(DigitalSignature(b"\x02" * 32), sub)
    assert p1 == issue_private_key(DigitalSignature(b"\x01" * 32), sub)
    assert p1.bytes != p2.bytes


def test_private_key_rejects_wrong_role():
    root = derive_root_key("CloudA", b"s")
    with pytest.raises(RoleMismatch):
        issue_private_key(DigitalSignature(b"\x01" * 32), root)


def test_signature_matches_frozen_oracle():
    sig = derive_signature("t1", {"spouse": "alice", "pet": "rex"})
    assert sig.bytes.hex() == SIG_ORACLE


def test_signature_identical_secrets_distinct_tenants():
    meta = {"spouse": "alice", "pet": "rex"}
    assert derive_signature("t1", meta) == derive_signature("t1", dict(meta))
    assert derive_signature("t1", meta) != derive_signature("t2", meta)


def _per_field_signature(tenant_id, extension_metadata):
    """The signature as each part was once encoded on its own, then joined."""
    canon = b"\x1f".join(
        k.encode() + b"\x1e" + v.encode() for k, v in sorted(extension_metadata.items()))
    return hashlib.sha256(b"crossrealm.v1.signature|" + tenant_id.encode() + b"|"
                          + canon).digest()


@example("t\u00e9-\u4e2d", {"p\u00eat": "r\U0001f600x", "spouse": "\u00e5sa"})
@given(st.text(min_size=1), st.dictionaries(st.text(), st.text(), min_size=1))
def test_one_encode_signature_equals_the_per_field_encoding(tenant_id, metadata):
    # text is drawn from all of Unicode, so most examples are not ASCII
    assert derive_signature(tenant_id, metadata).bytes == _per_field_signature(tenant_id, metadata)


# (tenant id, metadata) -> the part that is not text
_NOT_TEXT = {
    "tenant-id-int": (5, {"pet": "rex"}, 5),
    "tenant-id-bytes": (b"t1", {"pet": "rex"}, b"t1"),
    "class-int": ("t1", {"pet": "rex", 1: "x"}, 1),
    "class-bytes": ("t1", {b"pet": "rex"}, b"pet"),
    "value-int": ("t1", {"pet": 3}, 3),
    "value-none": ("t1", {"pet": "rex", "spouse": None}, None),
}


@pytest.mark.parametrize("case", _NOT_TEXT)
def test_metadata_that_is_not_text_is_invalid_input(case):
    tenant_id, metadata, culprit = _NOT_TEXT[case]
    with pytest.raises(InvalidInput, match=re.escape(repr(culprit))):
        derive_signature(tenant_id, metadata)
    vault = make_vault()
    with pytest.raises(InvalidInput, match=re.escape(repr(culprit))):
        vault.register_tenant("CloudA", "s1", tenant_id, {}, metadata)
    assert vault.clouds["CloudA"].subdomains["s1"].tenants == {}


# -- HMAC from precomputed states ------------------------------------------------

@example(b"\x01" * 64, b"m")
@example(b"\x01" * 65, b"m")
@given(st.integers(0, 130).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       st.binary(max_size=300))
def test_prf_equals_the_stdlib_hmac(key, message):
    # keys on both sides of SHA-256's 64-byte block: a longer one is hashed first
    assert keylib._prf(key, message) == hmac.new(key, message, hashlib.sha256).digest()


def test_prf_is_unchanged_for_a_key_whose_states_were_evicted():
    key, message = b"\x42" * 32, b"crossrealm"
    expected = hmac.new(key, message, hashlib.sha256).digest()
    assert keylib._prf(key, message) == expected
    for i in range(keylib._hmac_states.cache_info().maxsize + 1):
        other = i.to_bytes(2, "big") * 40  # 80 bytes: hashed to its block key first
        assert keylib._prf(other, message) == hmac.new(other, message, hashlib.sha256).digest()
    assert keylib._prf(key, message) == expected
    assert keylib._prf(key, message) == expected  # the states it cached again are not spent


# -- composition ---------------------------------------------------------------

def triple():
    root = derive_root_key("CloudA", b"s")
    sub = derive_subdomain_key(root, "hr")
    leaf = issue_private_key(DigitalSignature(b"\x07" * 32), sub)
    return root, sub, leaf


def test_compose_decompose_round_trip():
    root, sub, leaf = triple()
    key = HierarchicalKey(root, sub, leaf)
    assert tuple(key) == (root, sub, leaf)


def test_compose_rejects_misplaced_roles():
    root, sub, leaf = triple()
    with pytest.raises(RoleMismatch):
        HierarchicalKey(root, sub, root)
    with pytest.raises(RoleMismatch):
        HierarchicalKey(leaf, sub, leaf)
    with pytest.raises(RoleMismatch):
        HierarchicalKey(root, root, leaf)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32),
       st.binary(min_size=32, max_size=32))
def test_round_trip_on_arbitrary_parts(rb, sb, lb):
    root = KeyPart(rb, KeyRole.ROOT)
    sub = KeyPart(sb, KeyRole.SUBDOMAIN)
    leaf = KeyPart(lb, KeyRole.SESSION)
    assert tuple(HierarchicalKey(root, sub, leaf)) == (root, sub, leaf)


def test_key_part_length_enforced():
    with pytest.raises(InvalidInput):
        KeyPart(b"\x00" * 31, KeyRole.ROOT)


def test_replace_and_make_refuse_what_construction_refuses():
    root, sub, leaf = triple()
    key = HierarchicalKey(root, sub, leaf)
    ks = mint_session_keys(b"\x01" * 16, [("u1", "CloudA", "s1")], make_vault())
    short = b"\x00" * 31
    refused = [
        (InvalidInput, lambda: root._replace(bytes=short)),
        (InvalidInput, lambda: KeyPart._make((short, KeyRole.ROOT))),
        (InvalidInput, lambda: DigitalSignature(b"\x07" * 32)._replace(bytes=short)),
        (InvalidInput, lambda: DigitalSignature._make((short,))),
        (RoleMismatch, lambda: key._replace(root=leaf)),
        (RoleMismatch, lambda: HierarchicalKey._make((leaf, sub, leaf))),
        (InvalidInput, lambda: ks._replace(session_id=b"\x01" * 15)),
        (InvalidInput, lambda: SessionKeySet._make((b"\x01" * 15, dict(ks.keys), 0))),
    ]
    for error, build in refused:
        with pytest.raises(error):
            build()
    # what construction accepts, they build alike
    assert key._replace(leaf=leaf) == key == HierarchicalKey._make((root, sub, leaf))
    assert type(KeyPart._make(root)) is KeyPart


def test_a_key_sets_keys_are_read_only():
    ks = mint_session_keys(b"\x01" * 16, [("u1", "CloudA", "s1")], make_vault())
    mapping = dict(ks.keys)
    for held in (ks, SessionKeySet(ks.session_id, mapping, 0), ks._replace(keys=mapping)):
        with pytest.raises(TypeError):
            held.keys["u2"] = held.keys["u1"]
    built = SessionKeySet(ks.session_id, mapping, 0)
    mapping["u3"] = ks.keys["u1"]  # it holds a copy of the mapping it was given
    assert list(built.keys) == ["u1"]


# -- minting -------------------------------------------------------------------

def test_mint_two_participants_share_session_field():
    vault = make_vault()
    sid = b"\xaa" * 16
    ks = mint_session_keys(sid, [("u1", "CloudA", "s1"), ("u2", "CloudB", "s2")], vault)
    k1, k2 = ks.keys["u1"], ks.keys["u2"]
    assert k1.session_field() == k2.session_field() == sid
    assert k1.root.bytes != k2.root.bytes
    assert k1.subdomain.bytes != k2.subdomain.bytes
    assert ks.generation == 0


def test_mint_single_participant():
    ks = mint_session_keys(b"\x01" * 16, [("u1", "CloudA", "s1")], make_vault())
    assert len(ks.keys) == 1


def test_mint_unregistered_realm():
    with pytest.raises(UnregisteredRealm):
        mint_session_keys(b"\x01" * 16, [("u1", "CloudX", "s1")], make_vault())
    with pytest.raises(UnregisteredRealm):
        mint_session_keys(b"\x01" * 16, [("u1", "CloudA", "nope")], make_vault())


@pytest.mark.parametrize("participants", [
    5, None, "u1", ("u1", "CloudA", "s1"), [("u1", "CloudA")], [["u1", "CloudA", "s1"]],
    [(5, "CloudA", "s1")], [("", "CloudA", "s1")], [("u1", 5, "s1")], [("u1", "CloudA", "")],
], ids=repr)
def test_mint_refuses_participants_that_are_not_text_triples(participants):
    # the minting reads each participant as (tenant, cloud, sub-domain), so it
    # refuses any other form as InvalidInput, never a raw TypeError or ValueError;
    # and so does refresh_session, which mints the same way
    vault = make_vault()
    with pytest.raises(InvalidInput):
        mint_session_keys(b"\x01" * 16, participants, vault)
    keyset = mint_session_keys(b"\x01" * 16, [("u1", "CloudA", "s1")], vault)
    with pytest.raises(InvalidInput):
        refresh_session(keyset, participants, vault)


def test_mint_rejects_bad_session_id():
    with pytest.raises(InvalidInput):
        mint_session_keys(b"\x01" * 8, [("u1", "CloudA", "s1")], make_vault())


def test_refresh_bumps_generation_and_invalidates():
    vault = make_vault()
    participants = [("u1", "CloudA", "s1"), ("u2", "CloudB", "s2")]
    ks0 = mint_session_keys(b"\x02" * 16, participants, vault)
    ks1 = refresh_session(ks0, participants + [("u3", "CloudA", "s1")], vault)
    assert ks1.generation == 1
    assert len(ks1.keys) == 3
    for key in ks0.keys.values():
        assert not verify_session_key(key, ks1)
    for key in ks1.keys.values():
        assert verify_session_key(key, ks1)


def test_refresh_identical_membership_still_bumps():
    vault = make_vault()
    participants = [("u1", "CloudA", "s1")]
    ks0 = mint_session_keys(b"\x03" * 16, participants, vault)
    ks1 = refresh_session(ks0, participants, vault)
    assert ks1.generation == ks0.generation + 1
    assert not verify_session_key(ks0.keys["u1"], ks1)


def test_refresh_to_empty_list_rejected():
    ks = mint_session_keys(b"\x04" * 16, [("u1", "CloudA", "s1")], make_vault())
    with pytest.raises(InvalidInput):
        refresh_session(ks, [], make_vault())


def test_verify_fresh_true_tampered_false():
    vault = make_vault()
    ks = mint_session_keys(b"\x05" * 16, [("u1", "CloudA", "s1")], vault)
    key = ks.keys["u1"]
    assert verify_session_key(key, ks)
    tampered_leaf = KeyPart(key.leaf.bytes[:-1] + b"\x99", KeyRole.SESSION)
    tampered = HierarchicalKey(key.root, key.subdomain, tampered_leaf)
    assert not verify_session_key(tampered, ks)


def test_verify_only_latest_generation_across_refreshes():
    # brute force over every generation of a refresh chain
    vault = make_vault()
    participants = [("u1", "CloudA", "s1"), ("u2", "CloudB", "s2")]
    sets = [mint_session_keys(b"\x06" * 16, participants, vault)]
    for _ in range(4):
        sets.append(refresh_session(sets[-1], participants, vault))
    latest = sets[-1]
    for i, ks in enumerate(sets):
        for key in ks.keys.values():
            assert verify_session_key(key, latest) == (i == len(sets) - 1)


def test_private_leaf_has_no_session_field():
    root, sub, leaf = triple()
    key = HierarchicalKey(root, sub, leaf)
    with pytest.raises(RoleMismatch):
        key.session_field()
    with pytest.raises(RoleMismatch):
        key.generation()
    assert not verify_session_key(
        key, mint_session_keys(b"\x08" * 16, [("u1", "CloudA", "s1")], make_vault()))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_common_session_field_property(seed):
    # random participant subsets always share one session field value
    rng = random.Random(seed)
    vault = make_vault()
    realms = [("CloudA", "s1"), ("CloudB", "s2")]
    n = rng.randint(1, 6)
    participants = [(f"u{i}", *rng.choice(realms)) for i in range(n)]
    sid = rng.getrandbits(128).to_bytes(16, "big")
    ks = mint_session_keys(sid, participants, vault)
    fields = {key.session_field() for key in ks.keys.values()}
    assert fields == {sid}
    generations = {key.generation() for key in ks.keys.values()}
    assert generations == {0}
