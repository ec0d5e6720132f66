"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st


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
