//! 3-D spatial points and vectors.

use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in 3-D Euclidean space.
///
/// Coordinates are `f64`; the GPU simulator executes kernels with the same
/// precision so host and "device" results agree bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point3 {
    pub const ZERO: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// All three coordinates set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Point3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm2().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: &Point3) -> f64 {
        (*self - *other).norm2()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point3) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// Linear interpolation: `self + s * (other - self)`.
    #[inline]
    pub fn lerp(&self, other: &Point3, s: f64) -> Point3 {
        *self + (*other - *self) * s
    }

    /// Coordinate by dimension index (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        match dim {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("dimension index out of range: {dim}"),
        }
    }

    /// True if all coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Index<usize> for Point3 {
    type Output = f64;
    #[inline]
    fn index(&self, dim: usize) -> &f64 {
        match dim {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("dimension index out of range: {dim}"),
        }
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Point3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point3) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f64) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Point3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_norms() {
        let a = Point3::new(1.0, 2.0, 2.0);
        assert_eq!(a.dot(&a), 9.0);
        assert_eq!(a.norm2(), 9.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(Point3::ZERO.dist(&a), 3.0);
    }

    #[test]
    fn min_max_lerp() {
        let a = Point3::new(1.0, 5.0, 3.0);
        let b = Point3::new(2.0, 4.0, 6.0);
        assert_eq!(a.min(&b), Point3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(&b), Point3::new(2.0, 5.0, 6.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert_eq!(m, Point3::new(1.5, 4.5, 4.5));
    }

    #[test]
    fn coord_access() {
        let a = Point3::new(7.0, 8.0, 9.0);
        assert_eq!(a.coord(0), 7.0);
        assert_eq!(a.coord(1), 8.0);
        assert_eq!(a.coord(2), 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn coord_out_of_range_panics() {
        let _ = Point3::ZERO.coord(3);
    }

    #[test]
    fn finiteness() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
