"""Moduli of pentagonal subdivision tilings of the sphere.

Pentagonal subdivision replaces each triangular face of a tetrahedron,
octahedron or icosahedron (n = 3, 4, 5) by three congruent spherical
pentagons, all determined by one anchor point.  This package constructs the
pentagon, decides tile admissibility both by brute-force arc intersection
and by closed-form boundary curves, and computes the moduli areas.
"""

from .areas import (AreaReport, MonteCarloEstimate, consistency_A2A4A8,
                    elliptic_F_imag, fan_area_quadrature, monte_carlo_area,
                    part_areas, part_areas_quadrature)
from .charts import (INFINITY, ChartPoint, MobiusMap, SolidConstants,
                     SolidGeometry, apply_mobius, geometry, mobius_m_to_a,
                     mobius_m_to_b, solid_constants, to_chart, to_sphere)
from .moduli import (Boundary, BcGapReport, CurveSample, CurveSpec,
                     analytic_in_moduli, analytic_in_moduli_batch,
                     boundary_band_mask, check_bc_below_gammaA, curve_radius,
                     curve_spec, gamma_cartesian_residual,
                     gamma_complex_residual, gamma_m_chart, gamma_point,
                     gamma_residual, m_chart_cartesian_residual,
                     reduction_point, reduction_radii, reduction_residual,
                     region_of)
from .render import RenderOptions, render_svg
from .pentagon import (Pentagon, SimplicityReport, anchor_pentagon,
                       face_pentagons, is_simple, oracle_in_moduli,
                       oracle_in_moduli_batch)
from .sphere import (GreatArc, angular_distance, arc_intersect, minor_arc,
                     point_on_arc, unit)

__version__ = "0.1.0"

__all__ = [
    "AreaReport", "MonteCarloEstimate", "consistency_A2A4A8",
    "elliptic_F_imag", "fan_area_quadrature", "monte_carlo_area", "part_areas",
    "INFINITY", "ChartPoint", "MobiusMap", "SolidConstants", "SolidGeometry",
    "apply_mobius", "geometry", "mobius_m_to_a", "mobius_m_to_b",
    "solid_constants", "to_chart", "to_sphere",
    "Boundary", "BcGapReport", "CurveSample", "CurveSpec",
    "analytic_in_moduli", "analytic_in_moduli_batch", "check_bc_below_gammaA",
    "curve_spec", "gamma_m_chart", "gamma_point", "gamma_residual",
    "boundary_band_mask", "curve_radius", "gamma_cartesian_residual",
    "gamma_complex_residual", "m_chart_cartesian_residual",
    "oracle_in_moduli_batch", "reduction_point", "reduction_radii",
    "reduction_residual", "region_of", "part_areas_quadrature", "RenderOptions",
    "render_svg",
    "Pentagon", "SimplicityReport", "anchor_pentagon", "face_pentagons",
    "is_simple", "oracle_in_moduli",
    "GreatArc", "angular_distance", "arc_intersect", "minor_arc",
    "point_on_arc", "unit",
    "__version__",
]
