import re
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.errors import DomainError, PreconditionError
from loopwm.microworld import (
    BUILTIN_DOMAINS,
    apply_operator,
    canonical_dict,
    contact_window_frames,
    domain_from_dict,
    domain_hash,
    load_domain,
    parse_literal,
    reference_segment,
)
from conftest import op_index
from loopwm.numerics import RandomSource
from oracles import decode_frame

# operator indices of the builtin kitchen, which every kitchen fixture loads alike
_KITCHEN = load_domain("kitchen")
OPEN_JAR = op_index(_KITCHEN, "open", "jar")
POUR_TEA = op_index(_KITCHEN, "pour", "jar", "cup")
POUR_WATER = op_index(_KITCHEN, "pour", "kettle", "cup")


def minimal_domain_dict(**overrides):
    raw = {
        "name": "mini",
        "actor": "hand",
        "objects": {
            "hand": {"position": [0.5, 0.5], "movable": True},
            "box": {"position": [0.6, 0.5]},
        },
        "predicates": {"box.open": False},
        "operators": [
            {
                "verb": "open",
                "objects": ["box"],
                "tool": "hand",
                "pre": ["not box.open"],
                "post": ["box.open"],
                "motion": {"moves": ["hand"], "target": "box"},
            }
        ],
    }
    raw.update(overrides)
    return raw


def test_kitchen_layout(kitchen):
    assert kitchen.n_channels == 12
    assert kitchen.n_predicates == 8
    assert kitchen.movable_entities() == ["kettle", "hand"]
    assert {op.verb for op in kitchen.operators} == {"open", "pour", "grasp", "stir", "place"}
    # channel layout: predicates first, then poses in declaration order
    assert kitchen.channels[0] == "jar.closed"
    assert kitchen.channels[8:] == ["kettle.x", "kettle.y", "hand.x", "hand.y"]


def test_workshop_loads(workshop):
    assert workshop.n_channels == 10
    assert workshop.actor == "hand"


def test_load_domain_missing_file():
    with pytest.raises(DomainError, match="not found"):
        load_domain("/nonexistent/place.yaml")


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", BUILTIN_DOMAINS)
def test_builtin_domains_parse_alike_under_both_loaders(name):
    text = resources.files("loopwm.microworld.data").joinpath(f"{name}.yaml").read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_invalid_yaml_is_a_domain_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    with pytest.raises(DomainError, match="not valid YAML"):
        load_domain(path)


def test_schema_violation_is_named():
    bad = minimal_domain_dict()
    bad["operators"][0]["pre"] = ["Box.Open"]  # uppercase: fails the literal pattern
    with pytest.raises(DomainError, match="schema violation"):
        domain_from_dict(bad)


def _edit(*keys, value=None, drop=False):
    """An edit of `minimal_domain_dict()` that sets (or drops) the value at `keys`."""
    def apply(raw):
        *parents, last = keys
        node = raw
        for key in parents:
            node = node[key]
        if drop:
            del node[last]
        else:
            node[last] = value
        return raw
    return apply


def _rename_object(raw):
    raw["objects"]["Box"] = raw["objects"].pop("box")
    return raw


OP, MOTION = ("operators", 0), ("operators", 0, "motion")

# (edit of the minimal domain, the path the error names, text it must quote);
# one case per rule of the domain format that a file can break
BAD_DOCUMENTS = {
    # a required key missing, at each level
    "missing-name": (_edit("name", drop=True), "", "'name'"),
    "missing-actor": (_edit("actor", drop=True), "", "'actor'"),
    "missing-objects": (_edit("objects", drop=True), "", "'objects'"),
    "missing-predicates": (_edit("predicates", drop=True), "", "'predicates'"),
    "missing-operators": (_edit("operators", drop=True), "", "'operators'"),
    "missing-position": (_edit("objects", "box", "position", drop=True), "objects/box",
                         "'position'"),
    "missing-verb": (_edit(*OP, "verb", drop=True), "operators/0", "'verb'"),
    "missing-operator-objects": (_edit(*OP, "objects", drop=True), "operators/0", "'objects'"),
    "missing-pre": (_edit(*OP, "pre", drop=True), "operators/0", "'pre'"),
    "missing-post": (_edit(*OP, "post", drop=True), "operators/0", "'post'"),
    "missing-moves": (_edit(*MOTION, "moves", drop=True), "operators/0/motion", "'moves'"),
    "missing-target": (_edit(*MOTION, "target", drop=True), "operators/0/motion", "'target'"),
    # an unknown key, at each level
    "unknown-top": (_edit("colour", value="red"), "", "'colour'"),
    "unknown-object": (_edit("objects", "box", "colour", value="red"), "objects/box", "'colour'"),
    "unknown-operator": (_edit(*OP, "cost", value=1), "operators/0", "'cost'"),
    "unknown-motion": (_edit(*MOTION, "speed", value=1), "operators/0/motion", "'speed'"),
    # a value of the wrong type
    "not-a-mapping": (lambda raw: [raw], "", ""),
    "name-number": (_edit("name", value=3), "name", ""),
    "objects-list": (_edit("objects", value=[]), "objects", ""),
    "object-not-mapping": (_edit("objects", "box", value=[0.6, 0.5]), "objects/box", ""),
    "movable-string": (_edit("objects", "box", "movable", value="yes"), "objects/box/movable", ""),
    "predicate-string": (_edit("predicates", "box.open", value="no"), "predicates", ""),
    "operators-mapping": (_edit("operators", value={}), "operators", ""),
    "operator-string": (_edit("operators", 0, value="open box"), "operators", ""),
    "verb-number": (_edit(*OP, "verb", value=5), "operators/0/verb", ""),
    "operator-objects-string": (_edit(*OP, "objects", value="box"), "operators/0/objects", ""),
    "pre-string": (_edit(*OP, "pre", value="not box.open"), "operators/0/pre", ""),
    "null-tool": (_edit(*OP, "tool", value=None), "operators/0/tool", ""),
    "null-instruction": (_edit(*OP, "instruction", value=None), "operators/0/instruction", ""),
    "null-motion": (_edit(*OP, "motion", value=None), "operators/0/motion", ""),
    "motion-list": (_edit(*OP, "motion", value=["hand"]), "operators/0/motion", ""),
    "target-list": (_edit(*MOTION, "target", value=["box"]), "operators/0/motion/target", ""),
    # a bad domain, entity, predicate or literal name
    "domain-name": (_edit("name", value="Mini"), "name", "'Mini'"),
    "actor-name": (_edit("actor", value="Hand"), "actor", "'Hand'"),
    "entity-name": (_rename_object, "objects", "'Box'"),
    "predicate-name": (_edit("predicates", value={"box_open": False}), "predicates",
                       "'box_open'"),
    "verb-name": (_edit(*OP, "verb", value="Open"), "operators/0/verb", "'Open'"),
    "operator-object-name": (_edit(*OP, "objects", value=["Box"]), "operators/0/objects",
                             "'Box'"),
    "tool-name": (_edit(*OP, "tool", value="the hand"), "operators/0/tool", "'the hand'"),
    "pre-literal": (_edit(*OP, "pre", value=["never box.open"]), "operators/0/pre",
                    "'never box.open'"),
    # a name must match as a whole: "$" alone would let a trailing newline through
    "verb-newline": (_edit(*OP, "verb", value="open\n"), "operators/0/verb", "'open\\n'"),
    "pre-newline": (_edit(*OP, "pre", value=["not box.open\n"]), "operators/0/pre",
                    "'not box.open\\n'"),
    "post-literal": (_edit(*OP, "post", value=["box.Open"]), "operators/0/post", "'box.Open'"),
    "moves-name": (_edit(*MOTION, "moves", value=["Hand"]), "operators/0/motion/moves",
                   "'Hand'"),
    "target-name": (_edit(*MOTION, "target", value="Box"), "operators/0/motion/target", "'Box'"),
    # a position or contact that is not a pair in [0, 1], and a bool where a number goes
    "position-one": (_edit("objects", "box", "position", value=[0.6]), "objects/box/position",
                     ""),
    "position-three": (_edit("objects", "box", "position", value=[0.6, 0.5, 0.5]),
                       "objects/box/position", ""),
    "position-above": (_edit("objects", "box", "position", value=[0.6, 1.5]),
                       "objects/box/position", ""),
    "position-below": (_edit("objects", "box", "position", value=[-0.1, 0.5]),
                       "objects/box/position", ""),
    "position-bool": (_edit("objects", "box", "position", value=[True, 0.5]),
                      "objects/box/position", ""),
    "position-string": (_edit("objects", "box", "position", value="0.6, 0.5"),
                        "objects/box/position", ""),
    "contact-one": (_edit(*MOTION, "contact", value=[0.2]), "operators/0/motion/contact", ""),
    "contact-above": (_edit(*MOTION, "contact", value=[0.2, 1.2]),
                      "operators/0/motion/contact", ""),
    "contact-bool": (_edit(*MOTION, "contact", value=[0.25, True]),
                     "operators/0/motion/contact", ""),
    "contact-reversed": (_edit(*MOTION, "contact", value=[0.8, 0.2]),
                         "operators/0/motion/contact", "[0.8, 0.2]"),
    "contact-empty": (_edit(*MOTION, "contact", value=[0.5, 0.5]),
                      "operators/0/motion/contact", "[0.5, 0.5]"),
    # an empty mapping, list or string where the format needs an entry
    "empty-objects": (_edit("objects", value={}), "objects", ""),
    "empty-predicates": (_edit("predicates", value={}), "predicates", ""),
    "empty-operators": (_edit("operators", value=[]), "operators", ""),
    "empty-operator-objects": (_edit(*OP, "objects", value=[]), "operators/0/objects", ""),
    "empty-post": (_edit(*OP, "post", value=[]), "operators/0/post", ""),
    "empty-moves": (_edit(*MOTION, "moves", value=[]), "operators/0/motion/moves", ""),
    "empty-instruction": (_edit(*OP, "instruction", value=""), "operators/0/instruction", ""),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS, ids=list(BAD_DOCUMENTS))
def test_a_document_that_breaks_the_format_names_its_path(case):
    edit, path, quoted = BAD_DOCUMENTS[case]
    with pytest.raises(DomainError) as info:
        domain_from_dict(edit(minimal_domain_dict()), "bad.yaml")
    message = str(info.value)
    named = re.match(r"bad\.yaml: schema violation at '([^']*)': ", message)
    assert named, message
    # the named path is the broken value's, or one inside it (an item of a list)
    assert named[1] == path or (path and named[1].startswith(path + "/")), message
    assert quoted in message


def test_the_minimal_domain_and_a_hyphenated_name_load():
    assert domain_from_dict(minimal_domain_dict()).name == "mini"
    assert domain_from_dict(minimal_domain_dict(name="mini-2")).name == "mini-2"


def test_a_repeated_key_in_a_domain_file_is_a_domain_error(tmp_path):
    # PyYAML would keep the last entry and load one jar where the file wrote two
    path = tmp_path / "twice.yaml"
    path.write_text("name: twice\nactor: hand\nobjects:\n  jar: {position: [0.4, 0.5]}\n"
                    "  jar: {position: [0.6, 0.5]}\n")
    with pytest.raises(DomainError, match=r"(?s)not valid YAML: .*found repeated key 'jar'"
                                          r".*line 5"):
        load_domain(path)


def test_numbers_keep_the_type_the_file_gives_them():
    # the hash reads the numbers as written: [1, 0] is not [1.0, 0.0]
    raw = minimal_domain_dict()
    raw["objects"]["box"]["position"] = [1, 0]
    raw["operators"][0]["motion"]["contact"] = [0, 1]
    spec = domain_from_dict(raw)
    floats = domain_from_dict(minimal_domain_dict())
    assert canonical_dict(spec)["objects"]["box"]["position"] == [1, 0]
    assert [type(v) for v in spec.objects["box"].position] == [int, int]
    assert [type(v) for v in spec.operators[0].motion.contact] == [int, int]
    assert [type(v) for v in floats.objects["box"].position] == [float, float]
    raw["objects"]["box"]["position"] = [1.0, 0.0]
    assert domain_hash(spec) != domain_hash(domain_from_dict(raw))


def test_builtin_domain_hashes_are_pinned():
    assert {name: domain_hash(load_domain(name)) for name in BUILTIN_DOMAINS} == {
        "kitchen": "285cb51902c3a25af008ef021fee59331a7d90a7acbf58add27878c243f74065",
        "workshop": "2b92376710e1d266b46c8a6fae243ec258545f6c240c59f241865c46e64052ca",
    }


def test_unknown_predicate_in_literal_is_rejected():
    bad = minimal_domain_dict()
    bad["operators"][0]["post"] = ["box.shut"]
    with pytest.raises(DomainError,
                       match=r"^operator open\(box\) \[hand\]: unknown predicate in literal box.shut$"):
        domain_from_dict(bad)


def test_immovable_actor_rejected():
    bad = minimal_domain_dict()
    bad["objects"]["hand"]["movable"] = False
    with pytest.raises(DomainError, match="movable"):
        domain_from_dict(bad)


def test_duplicate_operator_rejected():
    bad = minimal_domain_dict()
    bad["operators"].append(dict(bad["operators"][0]))
    with pytest.raises(DomainError, match="duplicate"):
        domain_from_dict(bad)


def test_bad_contact_window_rejected():
    bad = minimal_domain_dict()
    bad["operators"][0]["motion"]["contact"] = [0.8, 0.2]
    with pytest.raises(DomainError, match="contact"):
        domain_from_dict(bad)


def test_domain_hash_is_stable_and_sensitive(kitchen):
    assert domain_hash(kitchen) == domain_hash(load_domain("kitchen"))
    changed = minimal_domain_dict()
    base_hash = domain_hash(domain_from_dict(minimal_domain_dict()))
    changed["objects"]["box"]["position"] = [0.61, 0.5]
    assert domain_hash(domain_from_dict(changed)) != base_hash


def test_encode_initial_state(kitchen):
    frame = kitchen.initial_frame
    assert frame.dtype == np.float64 and not frame.flags.writeable
    assert frame[kitchen.channel_index["jar.closed"]] == 1.0
    assert frame[kitchen.channel_index["cup.full"]] == 0.0
    assert frame[kitchen.channel_index["hand.x"]] == pytest.approx(0.49)


def test_decode_threshold_ties_resolve_true(kitchen):
    frame = kitchen.initial_frame.copy()
    frame[kitchen.channel_index["cup.full"]] = 0.5
    predicates, _ = decode_frame(kitchen, frame)
    assert predicates["cup.full"] is True
    assert kitchen.holds(frame, [parse_literal("cup.full")])
    frame[kitchen.channel_index["cup.full"]] = 0.49999
    assert decode_frame(kitchen, frame)[0]["cup.full"] is False
    assert kitchen.holds(frame, [parse_literal("not cup.full")])


def test_decode_clips_poses(kitchen):
    frame = kitchen.initial_frame.copy()
    frame[kitchen.channel_index["hand.x"]] = 1.7
    frame[kitchen.channel_index["hand.y"]] = -0.2
    _, poses = decode_frame(kitchen, frame)
    assert poses["hand.x"] == 1.0
    assert poses["hand.y"] == 0.0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encode_decode_roundtrip(data):
    kitchen = load_domain("kitchen")
    preds = {p: data.draw(st.booleans(), label=p) for p, _ in kitchen.predicates}
    poses = {}
    for obj in kitchen.movable_entities():
        for axis in ("x", "y"):
            poses[f"{obj}.{axis}"] = data.draw(
                st.floats(0.0, 1.0, allow_nan=False), label=f"{obj}.{axis}"
            )
    frame = np.empty(kitchen.n_channels)
    for name, value in {**preds, **poses}.items():
        frame[kitchen.channel_index[name]] = value
    back_preds, back_poses = decode_frame(kitchen, frame)
    assert back_preds == preds
    assert back_poses == poses


def channels(spec, frame, *names):
    """The frame's values at the named channels."""
    return tuple(frame[spec.channel_index[name]] for name in names)


def test_apply_operator_open_jar(kitchen):
    state = kitchen.initial_frame
    out = apply_operator(kitchen, state, OPEN_JAR)
    assert out.dtype == np.float64 and out.flags.writeable
    # post literals written, untouched predicates preserved
    assert channels(kitchen, out, "jar.closed", "jar.lid_removed", "cup.full") == (0.0, 1.0, 0.0)
    # hand dragged onto the jar; the initial frame unchanged
    assert channels(kitchen, out, "hand.x", "hand.y") == kitchen.objects["jar"].position
    assert channels(kitchen, state, "jar.closed") == (1.0,)


def test_apply_operator_precondition_error_names_literals(kitchen):
    state = kitchen.initial_frame.copy()
    for name in ("cup.full", "cup.has_tea", "kettle.grasped"):
        state[kitchen.channel_index[name]] = 1.0
    with pytest.raises(PreconditionError,
                       match=r"^pour\(kettle, cup\) \[kettle\] not applicable: unmet not cup.full"):
        apply_operator(kitchen, state, POUR_WATER)


def test_moving_target_position_read_before_motion(kitchen):
    # pour(kettle, cup): kettle and hand both land on the cup's fixed position
    state = kitchen.initial_frame.copy()
    for name in ("kettle.grasped", "cup.has_tea"):
        state[kitchen.channel_index[name]] = 1.0
    out = apply_operator(kitchen, state, POUR_WATER)
    assert channels(kitchen, out, "kettle.x", "kettle.y") == kitchen.objects["cup"].position
    assert channels(kitchen, out, "hand.x", "hand.y") == kitchen.objects["cup"].position


def test_contact_window_frames_default():
    assert contact_window_frames((0.25, 0.75), 16) == (4, 11)
    assert contact_window_frames((0.25, 0.75), 2) == (1, 1)


def test_reference_segment_two_frames_exact(kitchen):
    state = kitchen.initial_frame
    seg = reference_segment(kitchen, state, OPEN_JAR, n_frames=2)
    np.testing.assert_array_equal(seg[0], state)
    np.testing.assert_array_equal(seg[1], apply_operator(kitchen, state, OPEN_JAR))


def test_reference_segment_pose_delta_bound(kitchen):
    state = kitchen.initial_frame
    seg = reference_segment(kitchen, state, OPEN_JAR, n_frames=16)
    n_pred = kitchen.n_predicates
    for ch in range(n_pred, kitchen.n_channels):
        span = abs(seg[-1, ch] - seg[0, ch])
        deltas = np.abs(np.diff(seg[:, ch]))
        assert deltas.max() <= span / 15 + 1e-12


def test_reference_segment_endpoints_and_window_switch(kitchen):
    state = kitchen.initial_frame
    seg = reference_segment(kitchen, state, OPEN_JAR, n_frames=16)
    np.testing.assert_array_equal(seg[0], state)
    np.testing.assert_array_equal(seg[-1], apply_operator(kitchen, state, OPEN_JAR))
    ch = kitchen.channel_index["jar.lid_removed"]
    # constant outside the contact window, monotone ramp inside
    assert np.all(seg[:4, ch] == 0.0)
    assert np.all(seg[11:, ch] == 1.0)
    inside = seg[4:12, ch]
    assert np.all(np.diff(inside) >= 0)


def test_reference_segment_jitter_rules(kitchen):
    state = kitchen.initial_frame
    with pytest.raises(ValueError, match="jitter"):
        reference_segment(kitchen, state, OPEN_JAR, jitter=0.5)
    with pytest.raises(ValueError, match="RandomSource"):
        reference_segment(kitchen, state, OPEN_JAR, jitter=0.01)
    rng = RandomSource(3)
    seg = reference_segment(kitchen, state, OPEN_JAR, n_frames=16, rng=rng, jitter=0.01)
    clean = reference_segment(kitchen, state, OPEN_JAR, n_frames=16)
    # endpoints stay exact, interior pose perturbation bounded by the amplitude
    np.testing.assert_array_equal(seg[0], clean[0])
    np.testing.assert_array_equal(seg[-1], clean[-1])
    diff = np.abs(seg - clean)
    assert diff.max() <= 0.01 + 1e-12
    assert diff[:, : kitchen.n_predicates].max() == 0.0


def test_reference_segment_requires_preconditions(kitchen):
    state = kitchen.initial_frame
    with pytest.raises(PreconditionError):
        reference_segment(kitchen, state, POUR_TEA)
