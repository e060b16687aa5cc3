//! Rendering backends: PostScript (the pipeline's native `.ps` output) and
//! SVG (for the report figures). Both emit text; no external libraries.
//! Polylines write their coordinates straight into the page body with the
//! exact `{:.2}` writer in `fixed2`.

use crate::fixed2;

/// RGB color with components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Color {
    /// Red component.
    pub r: f64,
    /// Green component.
    pub g: f64,
    /// Blue component.
    pub b: f64,
}

impl Color {
    /// Black.
    pub const BLACK: Color = Color {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };
    /// Medium gray used for grid lines.
    pub const GRAY: Color = Color {
        r: 0.6,
        g: 0.6,
        b: 0.6,
    };
    /// Series palette (blue, red, green, orange, purple).
    pub const PALETTE: [Color; 5] = [
        Color {
            r: 0.12,
            g: 0.34,
            b: 0.66,
        },
        Color {
            r: 0.77,
            g: 0.18,
            b: 0.16,
        },
        Color {
            r: 0.18,
            g: 0.55,
            b: 0.24,
        },
        Color {
            r: 0.90,
            g: 0.56,
            b: 0.11,
        },
        Color {
            r: 0.48,
            g: 0.25,
            b: 0.60,
        },
    ];

    fn to_svg(self) -> String {
        format!(
            "rgb({},{},{})",
            (self.r * 255.0).round() as u8,
            (self.g * 255.0).round() as u8,
            (self.b * 255.0).round() as u8
        )
    }
}

/// Text anchor for label placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// Anchor at the left edge of the text.
    Start,
    /// Anchor at the text center.
    Middle,
    /// Anchor at the right edge.
    End,
}

/// A drawing surface in page coordinates: x grows right, y grows **down**,
/// origin at the top-left, units are points/pixels.
pub trait Backend {
    /// Draws a polyline.
    fn polyline(&mut self, points: &[(f64, f64)], color: Color, width: f64);
    /// Draws a straight line segment.
    fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, color: Color, width: f64) {
        self.polyline(&[(x1, y1), (x2, y2)], color, width);
    }
    /// Draws a text label at `(x, y)` (baseline position).
    fn text(&mut self, x: f64, y: f64, size: f64, anchor: Anchor, content: &str);
    /// Draws an axis-aligned rectangle outline.
    fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color, width: f64);
    /// Draws a filled axis-aligned rectangle.
    fn fill_rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color);
    /// Finalizes and returns the document text.
    fn finish(self: Box<Self>) -> String;
}

/// PostScript backend (Level 1, self-contained EPS-style document).
pub struct PostScript {
    width: f64,
    height: f64,
    body: String,
}

impl PostScript {
    /// Creates a PostScript page of the given size (points).
    pub fn new(width: f64, height: f64) -> Self {
        PostScript {
            width,
            height,
            body: String::new(),
        }
    }

    /// Flips page-coordinate y (down) to PostScript y (up).
    fn fy(&self, y: f64) -> f64 {
        self.height - y
    }
}

impl Backend for PostScript {
    fn polyline(&mut self, points: &[(f64, f64)], color: Color, width: f64) {
        if points.len() < 2 {
            return;
        }
        self.body.push_str(&format!(
            "{:.3} {:.3} {:.3} setrgbcolor {width:.2} setlinewidth\nnewpath\n",
            color.r, color.g, color.b
        ));
        for (i, &(x, y)) in points.iter().enumerate() {
            let fy = self.fy(y);
            fixed2::push(&mut self.body, x);
            self.body.push(' ');
            fixed2::push(&mut self.body, fy);
            self.body
                .push_str(if i == 0 { " moveto\n" } else { " lineto\n" });
        }
        self.body.push_str("stroke\n");
    }

    fn text(&mut self, x: f64, y: f64, size: f64, anchor: Anchor, content: &str) {
        let escaped = content
            .replace('\\', "\\\\")
            .replace('(', "\\(")
            .replace(')', "\\)");
        self.body.push_str(&format!(
            "0 0 0 setrgbcolor /Helvetica findfont {size:.1} scalefont setfont\n"
        ));
        let show = match anchor {
            Anchor::Start => format!("{x:.2} {:.2} moveto ({escaped}) show\n", self.fy(y)),
            Anchor::Middle => format!(
                "({escaped}) stringwidth pop 2 div neg {x:.2} add {:.2} moveto ({escaped}) show\n",
                self.fy(y)
            ),
            Anchor::End => format!(
                "({escaped}) stringwidth pop neg {x:.2} add {:.2} moveto ({escaped}) show\n",
                self.fy(y)
            ),
        };
        self.body.push_str(&show);
    }

    fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color, width: f64) {
        let pts = [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)];
        self.polyline(&pts, color, width);
    }

    fn fill_rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color) {
        self.body.push_str(&format!(
            "{:.3} {:.3} {:.3} setrgbcolor newpath {x:.2} {:.2} moveto {:.2} {:.2} lineto {:.2} {:.2} lineto {:.2} {:.2} lineto closepath fill\n",
            color.r,
            color.g,
            color.b,
            self.fy(y),
            x + w,
            self.fy(y),
            x + w,
            self.fy(y + h),
            x,
            self.fy(y + h),
        ));
    }

    fn finish(self: Box<Self>) -> String {
        format!(
            "%!PS-Adobe-3.0 EPSF-3.0\n%%BoundingBox: 0 0 {} {}\n%%Creator: arp-plot\n%%EndComments\n{}showpage\n%%EOF\n",
            self.width.ceil() as i64,
            self.height.ceil() as i64,
            self.body
        )
    }
}

/// SVG backend.
pub struct Svg {
    width: f64,
    height: f64,
    body: String,
}

impl Svg {
    /// Creates an SVG canvas of the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        Svg {
            width,
            height,
            body: String::new(),
        }
    }
}

impl Backend for Svg {
    fn polyline(&mut self, points: &[(f64, f64)], color: Color, width: f64) {
        if points.len() < 2 {
            return;
        }
        self.body.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"{width:.2}\" points=\"",
            color.to_svg()
        ));
        for (i, &(x, y)) in points.iter().enumerate() {
            if i > 0 {
                self.body.push(' ');
            }
            fixed2::push(&mut self.body, x);
            self.body.push(',');
            fixed2::push(&mut self.body, y);
        }
        self.body.push_str("\"/>\n");
    }

    fn text(&mut self, x: f64, y: f64, size: f64, anchor: Anchor, content: &str) {
        let a = match anchor {
            Anchor::Start => "start",
            Anchor::Middle => "middle",
            Anchor::End => "end",
        };
        let escaped = content
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;");
        self.body.push_str(&format!(
            "<text x=\"{x:.2}\" y=\"{y:.2}\" font-size=\"{size:.1}\" font-family=\"Helvetica,sans-serif\" text-anchor=\"{a}\">{escaped}</text>\n"
        ));
    }

    fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color, width: f64) {
        self.body.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"none\" stroke=\"{}\" stroke-width=\"{width:.2}\"/>\n",
            color.to_svg()
        ));
    }

    fn fill_rect(&mut self, x: f64, y: f64, w: f64, h: f64, color: Color) {
        self.body.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"{}\"/>\n",
            color.to_svg()
        ));
    }

    fn finish(self: Box<Self>) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postscript_document_structure() {
        let mut ps = Box::new(PostScript::new(400.0, 300.0));
        ps.polyline(&[(0.0, 0.0), (100.0, 50.0)], Color::BLACK, 1.0);
        ps.text(10.0, 20.0, 12.0, Anchor::Start, "hello (world)");
        ps.rect(5.0, 5.0, 50.0, 40.0, Color::GRAY, 0.5);
        let doc = ps.finish();
        assert!(doc.starts_with("%!PS-Adobe"));
        assert!(doc.contains("BoundingBox: 0 0 400 300"));
        assert!(doc.contains("lineto"));
        assert!(doc.contains("\\(world\\)")); // parens escaped
        assert!(doc.ends_with("%%EOF\n"));
    }

    #[test]
    fn postscript_flips_y() {
        let mut ps = Box::new(PostScript::new(100.0, 100.0));
        ps.polyline(&[(0.0, 0.0), (10.0, 0.0)], Color::BLACK, 1.0);
        let doc = ps.finish();
        // Page y=0 (top) maps to PS y=100 (up-positive).
        assert!(doc.contains("0.00 100.00 moveto"));
    }

    #[test]
    fn svg_document_structure() {
        let mut svg = Box::new(Svg::new(640.0, 480.0));
        svg.polyline(
            &[(0.0, 0.0), (10.0, 10.0), (20.0, 5.0)],
            Color::PALETTE[0],
            1.5,
        );
        svg.text(5.0, 5.0, 10.0, Anchor::Middle, "a < b & c");
        svg.fill_rect(1.0, 2.0, 3.0, 4.0, Color::GRAY);
        let doc = svg.finish();
        assert!(doc.starts_with("<svg"));
        assert!(doc.contains("polyline"));
        assert!(doc.contains("a &lt; b &amp; c"));
        assert!(doc.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn polylines_write_the_bytes_std_formatting_writes() {
        let pts = [
            (0.0, 0.0),
            (12.345, -0.005),
            (-3.999, 1e-9),
            (640.125, 479.875),
        ];
        let mut ps = Box::new(PostScript::new(640.0, 480.0));
        ps.polyline(&pts, Color::PALETTE[1], 1.2);
        let mut want = String::from("0.770 0.180 0.160 setrgbcolor 1.20 setlinewidth\nnewpath\n");
        for (i, &(x, y)) in pts.iter().enumerate() {
            let op = if i == 0 { "moveto" } else { "lineto" };
            want.push_str(&format!("{x:.2} {:.2} {op}\n", 480.0 - y));
        }
        want.push_str("stroke\n");
        assert!(ps.finish().contains(&want));

        let mut svg = Box::new(Svg::new(640.0, 480.0));
        svg.polyline(&pts, Color::BLACK, 1.0);
        let coords: Vec<String> = pts.iter().map(|&(x, y)| format!("{x:.2},{y:.2}")).collect();
        let want = format!(
            "<polyline fill=\"none\" stroke=\"rgb(0,0,0)\" stroke-width=\"1.00\" points=\"{}\"/>\n",
            coords.join(" ")
        );
        assert!(svg.finish().contains(&want));
    }

    #[test]
    fn single_point_polyline_is_skipped() {
        let mut svg = Box::new(Svg::new(10.0, 10.0));
        svg.polyline(&[(1.0, 1.0)], Color::BLACK, 1.0);
        let doc = svg.finish();
        assert!(!doc.contains("polyline"));
    }

    #[test]
    fn color_conversion() {
        assert_eq!(Color::BLACK.to_svg(), "rgb(0,0,0)");
        let c = Color {
            r: 1.0,
            g: 0.5,
            b: 0.0,
        };
        assert_eq!(c.to_svg(), "rgb(255,128,0)");
    }
}
