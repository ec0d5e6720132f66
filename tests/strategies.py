"""Hypothesis strategies shared by the property tests, and specs that more
than one test module reads."""

from hypothesis import strategies as st

# Specs that validate clean but cannot be built, each with the generated
# name that another neuron already holds and the position the refusal
# names: the declared element's, or 0:0 when both neurons are generated.
COLLISIONS = [
    (
        """
element sCO2      { type: sensory  affect: negative  threshold: 0.01 }
element sO2       { type: sensory  affect: positive  threshold: 0.01 }
element sH2O      { type: sensory  threshold: 0.01 }
element eFEAR     { type: emotion  affect: negative  threshold: 0.046 }
element ePLEASURE { type: emotion  affect: positive  threshold: 0.046 }
element issH2O { type: interneuron }""",
        "issH2O",
        "7:1",
    ),
    (
        "element sA { type: sensory }\nelement sB { type: sensory }\n"
        "element sA_sB { type: sensory }\nelement eX { type: emotion affect: positive }",
        "c_sA_sB",
        "0:0",
    ),
]


@st.composite
def random_specs(draw):
    """Upper-case names, so that no generated name (``is...``, ``c_...``,
    ``x...``) can collide with a declared one."""
    sensors = [f"S{i}" for i in range(draw(st.integers(1, 4)))]
    emotions = [f"E{i}" for i in range(draw(st.integers(1, 3)))]
    motors = [f"M{i}" for i in range(draw(st.integers(0, 2)))]
    lines = [f"element {s} {{ type: sensory }}" for s in sensors]
    for e in emotions:
        affect = draw(st.sampled_from(["positive", "negative"]))
        lines.append(f"element {e} {{ type: emotion affect: {affect} }}")
    lines += [f"element {m} {{ type: motor }}" for m in motors]
    names = st.sampled_from(sensors + emotions + motors)
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(names), draw(names)
        clause = draw(
            st.sampled_from(
                [
                    f"{a} causes {b}",
                    f"-{a} causes -{b}",
                    f"{a} causes {b} polarity: inhibitory",
                    f"{a} correlated {b}",
                    f"{a} opposes {b}",
                    f"{a} dominates {b}",
                ]
            )
        )
        lines.append(f"relationship {{ {clause} }}")
    return "\n".join(lines)
