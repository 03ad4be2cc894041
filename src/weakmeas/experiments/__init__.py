"""Figure reproduction: run configuration (``config``), the panels and their
one run entry (``presets``), SVG emission (``svgplot``) and the command-line
harness (``cli``)."""
