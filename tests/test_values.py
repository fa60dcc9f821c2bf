"""Value semantics of the frozen value classes: construction, equality, hashing, repr, immutability, refusals."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from twistor_pushout import charges, neck, pushout, quadric, realstruct, rings, scenario, surfaces
from twistor_pushout._value import Value
from twistor_pushout.gaussian import GaussianScalar

ONE, I = GaussianScalar.one(), GaussianScalar.i()
P3_P3 = Path(__file__).resolve().parent.parent / "scenarios" / "p3_p3.json"


def _samples():
    """Per class: its field names in order, and two instances with different fields."""
    base = pushout.projective_space_base()
    blown = pushout.blow_up(base)
    geometry = pushout.PushoutPair(blown, blown)
    ring = blown.ring
    zero = pushout.ComponentPair(ring.zero(), ring.zero())
    curves = pushout.ComponentPair(ring.basis_element(2, 0), ring.basis_element(2, 0))
    phases = neck.PhasePair(I, ONE, I)
    equalizer = geometry.equalizer()
    return [
        (GaussianScalar, ("re", "im"), GaussianScalar(1, 2), GaussianScalar(Fraction(1, 2), 2)),
        (rings.RingElement, ("ring", "coeffs"), ring.one(), ring.zero()),
        (quadric.Bidegree, ("m", "n"), quadric.Bidegree(1, 2), quadric.Bidegree(2, 1)),
        (quadric.QuadricClass, ("element",), quadric.class_b(), quadric.class_w()),
        (
            realstruct.QuadricPoint,
            ("z", "w"),
            realstruct.QuadricPoint((ONE, I), (ONE, ONE)),
            realstruct.QuadricPoint((ONE, ONE), (ONE, I)),
        ),
        (
            realstruct.Section11,
            ("a", "b", "c", "d"),
            realstruct.Section11(ONE, I, ONE, ONE),
            realstruct.Section11(ONE, ONE, I, ONE),
        ),
        (
            neck.CircleBundleClass,
            ("c1_class",),
            neck.kn_fixed_phase_bundle(),
            neck.CircleBundleClass(quadric.class_b()),
        ),
        (
            neck.RestrictedBundle,
            ("c1_int", "curve"),
            neck.RestrictedBundle(1),
            neck.RestrictedBundle(1, quadric.Bidegree(1, 1)),
        ),
        (neck.PhasePair, ("rho1", "rho2", "theta_unit"), phases, neck.PhasePair(ONE, I, I)),
        (
            neck.BranchCoordinate,
            ("modulus_sq", "phase"),
            neck.BranchCoordinate(Fraction(1, 2), ONE),
            neck.BranchCoordinate(Fraction(1, 2), I),
        ),
        (
            neck.PhaseDecoration,
            ("theta_unit", "points"),
            neck.PhaseDecoration(I, (("p", phases),)),
            neck.PhaseDecoration(I, ()),
        ),
        (
            surfaces.SurfaceData,
            ("twistor_degree", "contains_line"),
            surfaces.SurfaceData(2, False),
            surfaces.SurfaceData(2, True),
        ),
        (
            charges.CentralFibreCycle,
            ("pair", "matched"),
            charges.CentralFibreCycle(zero, True),
            charges.CentralFibreCycle(curves, True),
        ),
        (
            charges.GluedBundleData,
            ("geometry", "rank", "c1_pair", "c2_pair", "restriction_to_quadric_trivial", "h2_end_dims"),
            charges.GluedBundleData(geometry, 1, zero, zero, False, (0, 0)),
            charges.GluedBundleData(geometry, 2, zero, zero, False, (0, 0)),
        ),
        (
            pushout.TwistorChow,
            ("ring", "line_class", "twistor_degrees", "point_class"),
            base,
            pushout.flag_threefold_base(),
        ),
        (
            pushout.BlownUpChow,
            ("base", "ring", "quadric", "restriction_to_quadric_map", "pushforward_from_quadric"),
            blown,
            pushout.blow_up(pushout.flag_threefold_base()),
        ),
        (pushout.ComponentPair, ("first", "second"), zero, curves),
        (
            pushout.EqualizerRing,
            ("geometry", "lattices"),
            equalizer,
            pushout.EqualizerRing(geometry, equalizer.lattices[:1]),
        ),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, *_ in SAMPLES]


def _rebuilt(fields, value):
    return type(value)(*(getattr(value, name) for name in fields))


def test_every_value_class_is_sampled():
    assert len(SAMPLES) == 18
    assert {cls for cls, *_ in SAMPLES} == set(Value.__subclasses__())


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values_with_equal_hashes(cls, fields, value, other):
    assert type(value) is cls and type(other) is cls
    twin = _rebuilt(fields, value)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(tuple(getattr(value, name) for name in fields))
    assert value != other and not value == other


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_a_value_never_equals_another_class_or_its_field_tuple(cls, fields, value, other):
    assert value != tuple(getattr(value, name) for name in fields)
    for other_cls, _, foreign, _ in SAMPLES:
        if other_cls is not cls:
            assert value != foreign and foreign != value


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, fields, value, other):
    before = repr(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, value, other):
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_keyword_construction_equals_positional_construction(cls, fields, value, other):
    by_keyword = cls(**{name: getattr(value, name) for name in fields})
    assert by_keyword == _rebuilt(fields, value) == value
    first, *rest = fields
    assert cls(getattr(value, first), **{name: getattr(value, name) for name in rest}) == value


def test_omitted_fields_take_their_defaults():
    assert neck.RestrictedBundle(3).curve is None
    assert neck.RestrictedBundle(3, curve=None) == neck.RestrictedBundle(c1_int=3)


@pytest.mark.parametrize("cls, fields, value, other", SAMPLES, ids=IDS)
def test_bad_calls_raise_type_error_naming_the_class(cls, fields, value, other):
    values = [getattr(value, name) for name in fields]
    named = rf"\b{cls.__name__}\b"
    with pytest.raises(TypeError, match=named):
        cls(*values, values[0])
    with pytest.raises(TypeError, match=named):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match=named):
        cls(*values, **{fields[0]: values[0]})
    if cls is not GaussianScalar:  # both of its parts default to 0
        with pytest.raises(TypeError, match=named):
            cls()


def test_generic_constructor_messages():
    with pytest.raises(TypeError, match=r"^Bidegree\(\) takes 2 arguments, got 3$"):
        quadric.Bidegree(1, 2, 3)
    with pytest.raises(TypeError, match=r"^Bidegree\(\) got an unexpected keyword argument 'k'$"):
        quadric.Bidegree(1, 2, k=3)
    with pytest.raises(TypeError, match=r"^Bidegree\(\) got multiple values for argument 'm'$"):
        quadric.Bidegree(1, m=1)
    with pytest.raises(TypeError, match=r"^Bidegree\(\) missing argument 'n'$"):
        quadric.Bidegree(1)
    # only the annotated fields are keywords; any other name is refused
    with pytest.raises(TypeError, match=r"^EqualizerRing\(\) got an unexpected keyword argument '_members'$"):
        pushout.EqualizerRing(None, (), _members=())


def test_repr_keeps_the_field_form():
    assert repr(GaussianScalar(1, 2)) == "GaussianScalar(re=1, im=2)"
    assert repr(quadric.Bidegree(1, -1)) == "Bidegree(m=1, n=-1)"
    assert repr(neck.RestrictedBundle(3)) == "RestrictedBundle(c1_int=3, curve=None)"
    assert repr(surfaces.SurfaceData(2, False)) == "SurfaceData(twistor_degree=2, contains_line=False)"


BLOCKS = ("branch1", "branch2", "geometry", "bundles", "polarization", "surfaces", "decoration", "assumption_def")
PAIR = ("branch1", "branch2", "geometry")


@pytest.mark.parametrize("first", BLOCKS)
def test_scenario_decodes_each_block_once_on_its_first_read(first, monkeypatch):
    # a scenario is not a value: it decodes its blocks lazily.  Loading decodes none; the
    # first read of a block decodes that block alone, after the two branches if it is read
    # against the pair, caches only what it read, and no block is decoded twice
    decoded = []
    decode = scenario.Scenario._decode

    def counted(self, read, *args):
        decoded.append(args[0] if read is scenario._branch else read)  # a branch by its key
        return decode(self, read, *args)

    monkeypatch.setattr(scenario.Scenario, "_decode", counted)
    loaded = scenario.load_scenario(P3_P3)
    assert decoded == []
    getattr(loaded, first)
    if first in ("branch1", "branch2"):
        assert decoded == [first] and set(vars(loaded)) == {"_doc", "_path", first}
    elif first == "geometry":
        assert decoded == ["branch1", "branch2"] and set(vars(loaded)) == {"_doc", "_path", *PAIR}
    elif first in ("bundles", "polarization"):
        assert decoded[:2] == ["branch1", "branch2"] and len(decoded) == 3
        assert (decoded[2] is scenario._bundles) == (first == "bundles")
        assert set(vars(loaded)) == {"_doc", "_path", *PAIR, first}
    else:
        assert len(decoded) == 1 and decoded[0] not in ("branch1", "branch2", scenario._bundles)
        assert set(vars(loaded)) == {"_doc", "_path", first}
    for name in BLOCKS * 2:
        getattr(loaded, name)
    assert len(decoded) == len(set(decoded)) == 7
    assert max(decoded.index("branch1"), decoded.index("branch2")) < decoded.index(scenario._bundles)
    assert len(loaded.bundles) == 2 and loaded.polarization is not None and loaded.decoration is not None
    assert len(loaded.surfaces) == 3 and loaded.assumption_def is True
    assert loaded.geometry.branch1 is loaded.branch1 and loaded.geometry.branch2 is loaded.branch2


def test_construction_refusals_are_kept():
    with pytest.raises(ValueError, match="twistor degree must be at least 1"):
        surfaces.SurfaceData(0, True)
    foreign = pushout.projective_space_base().ring.homogeneous(1, [1])
    with pytest.raises(ValueError, match="QuadricClass elements must live in the quadric ring"):
        quadric.QuadricClass(foreign)
    with pytest.raises(ValueError, match="rho1 must have unit squared modulus"):
        neck.PhasePair(GaussianScalar(2), ONE, GaussianScalar(2))
    with pytest.raises(ValueError, match=re.escape("phase pair must satisfy rho1 * rho2 = theta")):
        neck.PhasePair(I, I, I)
    ring = quadric.quadric_ring()
    with pytest.raises(ValueError, match=re.escape("coefficient vectors must cover degrees 0..top_degree")):
        rings.RingElement(ring, ((1,), (0, 0)))
    with pytest.raises(ValueError, match="degree 1: expected 2 coefficients"):
        rings.RingElement(ring, ((1,), (0,), (0,)))
    with pytest.raises(ValueError, match="first factor: projective coordinates cannot both vanish"):
        realstruct.QuadricPoint((GaussianScalar(), GaussianScalar()), (ONE, ONE))


def test_gaussian_parts_are_normalised_at_construction():
    value = GaussianScalar(Fraction(4, 2), Fraction(3, 3))
    assert type(value.re) is int and type(value.im) is int and value == GaussianScalar(2, 1)
    assert GaussianScalar.of("1/2").re == Fraction(1, 2)


@pytest.mark.parametrize("part", [0.1, 2.0, True, False])
def test_gaussian_parts_refuse_floats_and_bools(part):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True) is 1
    for args in ((part,), (0, part), (Fraction(1, 2), part)):
        with pytest.raises(TypeError, match=re.escape(f"got {part!r}")):
            GaussianScalar(*args)
